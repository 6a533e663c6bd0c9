//! # wsn-models
//!
//! The primary contribution of *"Experimental Study for Multi-layer
//! Parameter Configuration of WSN Links"* (Fu et al., ICDCS 2015), as a
//! library: the empirical performance models, the SNR zone structure, the
//! per-metric tuning guidelines, and the joint multi-objective parameter
//! optimizer.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Eq. 2 energy model `E` | [`energy`] |
//! | Eq. 3 PER surface | [`surface`] + [`constants`] |
//! | Eq. 4 max-goodput model `G` | [`goodput`] |
//! | Eqs. 5–7 service-time model `D` | [`service_time`] |
//! | Eq. 8 radio loss model `L` | [`loss`] |
//! | Eq. 9 utilization ρ | [`service_time`] |
//! | Fig. 6(d) joint-effect zones | [`zones`] |
//! | Model fitting (Figs. 11–12) | [`fit`] |
//! | Guidelines (Secs. IV-C…VII-B) | [`guidelines`] |
//! | MOP / epsilon-constraint (Sec. VIII-B) | [`optimize`] + [`predict`] |
//! | Single-parameter baselines (Table IV) | [`baselines`] |
//!
//! ## Example: the paper's joint-tuning headline
//!
//! ```
//! use wsn_models::prelude::*;
//! use wsn_params::prelude::*;
//!
//! // The case-study link: a shadowed 35 m link (6 dB SNR at max power).
//! let mut predictor = Predictor::paper();
//! predictor.budget = LinkBudget::case_study();
//!
//! // The starting operating point (Ptx = 23, lD = 114, no retx) …
//! let base = StackConfig::builder()
//!     .distance_m(35.0)
//!     .power_level(23)
//!     .payload_bytes(114)
//!     .max_tries(1)
//!     .build()?;
//! let before = predictor.evaluate(&base);
//!
//! // … and the joint multi-parameter optimum over the measured grid:
//! let grid = ParamGrid {
//!     distances_m: vec![35.0],
//!     ..ParamGrid::paper()
//! };
//! let optimizer = Optimizer { predictor };
//! let joint = optimizer.joint_energy_goodput(&grid, 1.2).unwrap();
//! // Joint tuning dominates: more goodput at less energy per bit.
//! assert!(joint.predicted.max_goodput_bps > before.max_goodput_bps);
//! assert!(joint.predicted.u_eng_uj_per_bit < before.u_eng_uj_per_bit);
//! # Ok::<(), wsn_params::error::InvalidParam>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod baselines;
pub mod battery;
pub mod constants;
pub mod energy;
pub mod explore;
pub mod fit;
pub mod goodput;
pub mod guidelines;
pub mod loss;
pub mod lpl;
pub mod optimize;
pub mod predict;
pub mod queueing;
pub mod sensitivity;
pub mod service_time;
pub mod surface;
pub mod zones;

/// Convenient glob-import of the models and the optimizer.
pub mod prelude {
    pub use crate::adapt::{AdaptiveTuner, SnrEstimator, TuneObjective};
    pub use crate::baselines::Baseline;
    pub use crate::battery::{Battery, LifetimeEstimate};
    pub use crate::constants::PaperConstants;
    pub use crate::energy::EnergyModel;
    pub use crate::explore::{explore_grid, ExploreOutcome};
    pub use crate::fit::{fit_exp_surface, linear_fit, SurfaceFit, SurfacePoint};
    pub use crate::goodput::GoodputModel;
    pub use crate::guidelines::{EnergyAdvice, Guidelines, LossAdvice};
    pub use crate::loss::{mm1k_blocking, LossEstimate, LossModel, RadioLossModel};
    pub use crate::lpl::{LplConfig, LplModel, LplPowerBudget};
    pub use crate::optimize::{
        dominates, knee, knee_of_front, pareto_front_indices, Evaluation, Front, GridScan, Metric,
        Optimizer,
    };
    pub use crate::predict::{LinkBudget, Predicted, Predictor};
    pub use crate::queueing::{
        finite_queue_outcome, gg1_waiting_time_s, pk_waiting_time_s, QueueOutcome, ServiceMoments,
    };
    pub use crate::sensitivity::{tornado, Knob, KnobSensitivity};
    pub use crate::service_time::{attempt_count_pmf, ServiceTimeModel};
    pub use crate::surface::ExpSurface;
    pub use crate::zones::Zone;
}
