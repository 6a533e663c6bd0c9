//! # wsn-radio
//!
//! The PHY-layer substrate of the reproduction: a TI CC2420 radio model and
//! the synthetic hallway channel reconstructed from the paper's Sec. III
//! measurements.
//!
//! * [`cc2420`] — datasheet tables: PA level → output dBm / TX current,
//!   RX & idle drains, receiver sensitivity, energy per bit (`Etx` of Eq. 2),
//! * [`pathloss`] — log-distance path loss with the paper's Fig. 3 fit
//!   (n = 2.19, σ = 3.2 dB),
//! * [`shadowing`] — AR(1) correlated slow fading with the Fig. 4 deviation
//!   profile (elevated at 35 m),
//! * [`noise`] — noise-floor distribution around −95 dBm (Fig. 5),
//! * [`per`] — packet-error backends: the paper's empirical Eq. 3 surface
//!   and a first-principles O-QPSK DSSS model,
//! * [`channel`] — the composed per-attempt channel,
//! * [`budget`] — campaign-shared memoization of the deterministic
//!   per-`(power, distance)` link-budget terms,
//! * [`energy`] — radio-state energy metering.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use wsn_radio::prelude::*;
//! use wsn_params::prelude::*;
//!
//! let ch = Channel::new(
//!     ChannelConfig::paper_hallway(),
//!     PowerLevel::new(11)?,
//!     Distance::from_meters(35.0)?,
//!     StdRng::seed_from_u64(1),
//!     StdRng::seed_from_u64(2),
//! );
//! // The paper's headline operating point: Ptx=11 at 35 m ≈ 19 dB mean SNR.
//! assert!((ch.mean_snr_db() - 19.0).abs() < 0.5);
//! # Ok::<(), wsn_params::error::InvalidParam>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cc2420;
pub mod channel;
pub mod energy;
pub mod interference;
pub mod noise;
pub mod pathloss;
pub mod per;
pub mod shadowing;

/// Convenient glob-import of the radio substrate.
pub mod prelude {
    // `budget::LinkBudget` (the memo entry) is deliberately not glob-exported:
    // it would collide with the analytical `wsn_models::predict::LinkBudget`
    // in the umbrella prelude. Reach it via `wsn_radio::budget::LinkBudget`.
    pub use crate::budget::LinkBudgetTable;
    pub use crate::channel::{Channel, ChannelConfig, Observation};
    pub use crate::energy::{EnergyBreakdown, EnergyMeter};
    pub use crate::interference::InterferenceModel;
    pub use crate::noise::NoiseModel;
    pub use crate::pathloss::PathLoss;
    pub use crate::per::{DsssPer, EmpiricalPer, PerBackend, PerModel};
    pub use crate::shadowing::{Shadowing, SigmaProfile};
    pub use wsn_params::motion::Trajectory;
}
