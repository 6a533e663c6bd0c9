//! # wsn-linkconf
//!
//! Multi-layer parameter configuration of WSN links — a full Rust
//! reproduction of *"Experimental Study for Multi-layer Parameter
//! Configuration of WSN Links"* (Fu, Zhang, Jiang, Hu, Shih, Marrón —
//! ICDCS 2015).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — deterministic discrete-event engine,
//! * [`params`] — the seven stack parameters (Table I) and the ~48k grid,
//! * [`radio`] — CC2420 PHY model: path loss, shadowing, noise, PER, energy,
//! * [`mac`] — unslotted CSMA-CA, ACK/retransmission, transmit queue,
//! * [`link`] — the composed sender→receiver link simulator,
//! * [`net`] — the multi-link shared-channel network API (scenarios,
//!   network simulation, scenario catalog) as a first-class surface,
//! * [`models`] — the paper's empirical models (Eqs. 2–9), curve fitting,
//!   per-metric guidelines and multi-objective parameter optimization,
//! * [`serve`] — the concurrent JSON-lines query service (`repro serve`),
//! * [`experiments`] — the harness that regenerates every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use wsn_linkconf::prelude::*;
//!
//! // One configuration of the 7 stack parameters …
//! let cfg = StackConfig::builder()
//!     .distance_m(20.0)
//!     .power_level(31)
//!     .payload_bytes(110)
//!     .max_tries(3)
//!     .build()?;
//!
//! // … simulated for 500 packets on the synthetic hallway channel:
//! let outcome = LinkSimulation::new(cfg, SimOptions::quick(500)).run();
//! let m = outcome.metrics();
//! assert!(m.goodput_bps > 0.0);
//! assert!(m.plr_total() <= 1.0);
//! # Ok::<(), wsn_linkconf::params::error::InvalidParam>(())
//! ```
//!
//! ## Multi-link scenarios
//!
//! The network surface mirrors the single-link one: a [`net::Scenario`]
//! is built the same way a `StackConfig` is, then run through
//! [`net::NetworkSimulation`]:
//!
//! ```
//! use wsn_linkconf::net::{NetOptions, NetworkSimulation, Scenario};
//! use wsn_linkconf::prelude::*;
//!
//! // Two crossing links 12 m apart, built with the scenario builder:
//! let near = StackConfig::builder().distance_m(10.0).power_level(27).build()?;
//! let far = StackConfig::builder().distance_m(20.0).power_level(31).build()?;
//! let scenario = Scenario::builder()
//!     .link(LinkSpec::at(Position::new(0.0, 0.0), Position::new(10.0, 0.0), near))
//!     .link(LinkSpec::at(Position::new(0.0, 12.0), Position::new(20.0, 12.0), far))
//!     .capture_db(3.0)
//!     .build()?;
//!
//! let outcome = NetworkSimulation::new(scenario, NetOptions::quick(200)).run();
//! assert_eq!(outcome.links.len(), 2);
//! // Both links moved traffic over the shared air:
//! assert!(outcome.goodput_bps() > 0.0);
//! assert!(outcome.air.frames > 0);
//! # Ok::<(), wsn_linkconf::params::error::InvalidParam>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wsn_analytic as analytic;
pub use wsn_experiments as experiments;
pub use wsn_link_sim as link;
pub use wsn_mac as mac;
pub use wsn_models as models;
pub use wsn_params as params;
pub use wsn_radio as radio;
pub use wsn_serve as serve;
pub use wsn_sim_engine as sim;

pub mod net {
    //! The multi-link network API, promoted to a first-class surface: scenario
    //! description and building ([`Scenario`], [`LinkSpec`], [`Position`]),
    //! topology dynamics ([`ScenarioTimeline`], [`TopologyEvent`]), the
    //! shared-channel simulator ([`NetworkSimulation`]), its outcome types
    //! ([`NetworkOutcome`], [`LinkOutcome`], [`AirStats`], [`TopoStats`],
    //! [`EpochSnapshot`]), and the named scenario and timeline catalogs
    //! ([`all_scenarios`], [`build_scenario`], [`all_timelines`],
    //! [`build_timeline`]).

    pub use wsn_link_sim::catalog::{all_scenarios, all_timelines, build_scenario, build_timeline};
    pub use wsn_link_sim::network::{
        scenario_from_interference, AirStats, EpochLink, EpochSnapshot, LinkOutcome, NetOptions,
        NetworkOutcome, NetworkSimulation, TopoStats,
    };
    pub use wsn_params::scenario::{LinkSpec, Position, Scenario, ScenarioBuilder};
    pub use wsn_params::timeline::{
        failure_storm, from_trajectories, random_waypoint, ScenarioTimeline, TopologyAction,
        TopologyEvent,
    };
}

/// One-stop import for applications built on the library.
pub mod prelude {
    pub use wsn_analytic::prelude::*;
    pub use wsn_link_sim::prelude::*;
    pub use wsn_mac::prelude::*;
    pub use wsn_models::prelude::*;
    pub use wsn_params::prelude::*;
    pub use wsn_radio::prelude::*;
    pub use wsn_serve::prelude::*;
    pub use wsn_sim_engine::prelude::*;
}
