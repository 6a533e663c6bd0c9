//! Analytic performance prediction for a full stack configuration.
//!
//! The optimizer needs to evaluate thousands of candidate configurations
//! without simulating each one. [`Predictor`] composes the paper's four
//! empirical models (Table III) with a [`LinkBudget`] that maps
//! `(Ptx, d)` to an expected SNR, yielding a [`Predicted`] vector of all
//! four performance metrics per configuration.

use std::convert::Infallible;
use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_params::types::{Distance, PowerLevel};
use wsn_radio::pathloss::PathLoss;

use crate::energy::EnergyModel;
use crate::goodput::GoodputModel;
use crate::loss::{mm1k_blocking, LossModel};
use crate::optimize::{GridScan, Metric};
use crate::service_time::ServiceTimeModel;

/// Maps a transmit power and distance to an expected SNR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Path-loss model of the environment.
    pub pathloss: PathLoss,
    /// Mean noise floor, dBm.
    pub noise_dbm: f64,
}

impl LinkBudget {
    /// The paper's hallway with its −95 dBm average noise floor.
    pub fn paper_hallway() -> Self {
        LinkBudget {
            pathloss: PathLoss::paper_hallway(),
            noise_dbm: -95.0,
        }
    }

    /// The link condition of the paper's Sec. VIII case study: a heavily
    /// shadowed 35 m link where even the maximum output power only reaches
    /// **6 dB** SNR ("we assume the current SNR increases to 6 dB after
    /// the output power level increases from 23 to maximum 31"). Modeled
    /// as the hallway with ≈23 dB of additional shadowing loss.
    pub fn case_study() -> Self {
        let mut pathloss = PathLoss::paper_hallway();
        pathloss.reference_loss_db = 55.2;
        LinkBudget {
            pathloss,
            noise_dbm: -95.0,
        }
    }

    /// Expected SNR for an operating point, dB.
    pub fn snr_db(&self, power: PowerLevel, distance: Distance) -> f64 {
        self.pathloss.mean_snr_db(power, distance, self.noise_dbm)
    }
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget::paper_hallway()
    }
}

/// The model-predicted performance of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicted {
    /// Expected SNR of the operating point, dB.
    pub snr_db: f64,
    /// Energy per information bit (Eq. 2), µJ/bit.
    pub u_eng_uj_per_bit: f64,
    /// Maximum goodput (Eq. 4, saturated sending), b/s.
    pub max_goodput_bps: f64,
    /// Expected goodput under the configuration's periodic load, b/s.
    pub offered_goodput_bps: f64,
    /// Mean service time (Eqs. 5–7), ms.
    pub service_time_ms: f64,
    /// System utilization (Eq. 9).
    pub rho: f64,
    /// Predicted mean delay (service + queueing approximation), ms.
    pub delay_ms: f64,
    /// Radio loss rate (Eq. 8).
    pub plr_radio: f64,
    /// Queue-overflow loss rate (M/M/1/K on ρ).
    pub plr_queue: f64,
}

impl Predicted {
    /// Total predicted loss rate.
    pub fn plr_total(&self) -> f64 {
        self.plr_queue + (1.0 - self.plr_queue) * self.plr_radio
    }
}

/// Composes the four empirical models into a configuration evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predictor {
    /// Energy model (Eq. 2 + Eq. 3).
    pub energy: EnergyModel,
    /// Goodput model (Eq. 4).
    pub goodput: GoodputModel,
    /// Loss model (Eq. 8 + queueing).
    pub loss: LossModel,
    /// Service-time model (Eqs. 5–7, 9).
    pub service: ServiceTimeModel,
    /// The link budget mapping `(Ptx, d)` to SNR.
    pub budget: LinkBudget,
}

impl Predictor {
    /// A predictor with the paper's published constants on the hallway
    /// link budget.
    pub fn paper() -> Self {
        Predictor {
            energy: EnergyModel::paper(),
            goodput: GoodputModel::paper(),
            loss: LossModel::paper(),
            service: ServiceTimeModel::paper(),
            budget: LinkBudget::paper_hallway(),
        }
    }

    /// Evaluates one configuration at its budget-implied SNR.
    pub fn evaluate(&self, config: &StackConfig) -> Predicted {
        self.evaluate_at_snr(config, self.budget.snr_db(config.power, config.distance))
    }

    /// Evaluates one configuration at an explicitly known SNR (e.g. a
    /// measured one), bypassing the link budget.
    pub fn evaluate_at_snr(&self, config: &StackConfig, snr_db: f64) -> Predicted {
        self.link_terms(snr_db, config).predict(config)
    }

    /// The terms of a prediction that read only the link (not `link`'s
    /// `Tpkt` or `Qmax`).
    fn link_terms(&self, snr_db: f64, link: &StackConfig) -> LinkTerms {
        let StackConfig {
            payload,
            power,
            max_tries,
            retry_delay,
            ..
        } = *link;
        LinkTerms {
            snr_db,
            u_eng: self.energy.u_eng_uj_per_bit(snr_db, payload, power),
            max_goodput: self
                .goodput
                .max_goodput_bps(snr_db, payload, max_tries, retry_delay),
            t_service_s: self.service.plugin_service_time_s(
                snr_db,
                payload,
                max_tries,
                retry_delay,
            ),
            plr_radio: self.loss.radio.rate(snr_db, payload, max_tries),
        }
    }
}

/// The predictor as a [`GridScan`]: each `Predicted` is bit-identical to
/// [`Predictor::evaluate`]'s, but the link terms (energy, maximum goodput,
/// service time, radio loss) are computed once per link tuple of
/// [`ParamGrid::walk`] — 576 of the paper grid's 8,064 configurations per
/// distance — and only ρ, the queue blocking, the offered goodput and the
/// delay per configuration.
impl GridScan for Predictor {
    type Score = Predicted;
    type Stop = Infallible;

    fn value(score: &Predicted, metric: Metric) -> f64 {
        metric.value(score)
    }

    fn scan<B>(
        &self,
        grid: &ParamGrid,
        mut visit: impl FnMut(&StackConfig, &Predicted) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, Infallible> {
        // The walk orders link tuples (d, Ptx)-major, so one remembered
        // SNR serves each (d, Ptx) run of them.
        let mut snr = None;
        Ok(grid.walk(
            |link| {
                let key = (link.distance, link.power);
                let snr_db = match snr {
                    Some((k, snr_db)) if k == key => snr_db,
                    _ => self.budget.snr_db(link.power, link.distance),
                };
                snr = Some((key, snr_db));
                self.link_terms(snr_db, link)
            },
            |config, link| visit(config, &link.predict(config)),
        ))
    }
}

/// The link terms of a prediction: everything that reads only the SNR
/// and `(lD, Ptx, NmaxTries, Dretry)`, shared by every `Tpkt` and `Qmax`.
#[derive(Debug, Clone, Copy)]
struct LinkTerms {
    snr_db: f64,
    /// Energy per information bit (Eq. 2), µJ/bit.
    u_eng: f64,
    /// Maximum goodput (Eq. 4), b/s.
    max_goodput: f64,
    /// Mean service time (Eqs. 5–7), s.
    t_service_s: f64,
    /// Radio loss rate (Eq. 8).
    plr_radio: f64,
}

impl LinkTerms {
    /// Adds the queue terms of `config` (`Tpkt`, `Qmax`): ρ (Eq. 9), the
    /// M/M/1/K blocking, the offered goodput and the mean delay.
    fn predict(&self, config: &StackConfig) -> Predicted {
        let LinkTerms {
            snr_db,
            u_eng,
            max_goodput,
            t_service_s,
            plr_radio,
        } = *self;
        let rho = t_service_s / config.packet_interval.as_secs_f64();
        let plr_queue = mm1k_blocking(rho, config.queue_cap.get() as usize);

        // Delivered fraction of the periodic offered load.
        let offered_goodput = config.offered_load_bps() * (1.0 - plr_queue) * (1.0 - plr_radio);

        // Mean delay: service time plus an M/M/1-style waiting-time
        // approximation while stable; once saturated the backlog sits at
        // the buffer limit, so waiting ≈ (Qmax − 1) service times.
        let queue_wait_s = if rho < 1.0 {
            let unbounded = t_service_s * rho / (1.0 - rho);
            let cap = t_service_s * (config.queue_cap.get().saturating_sub(1)) as f64;
            unbounded.min(cap)
        } else {
            t_service_s * (config.queue_cap.get().saturating_sub(1)) as f64
        };
        let delay_ms = (t_service_s + queue_wait_s) * 1e3;

        Predicted {
            snr_db,
            u_eng_uj_per_bit: u_eng,
            max_goodput_bps: max_goodput,
            offered_goodput_bps: offered_goodput,
            service_time_ms: t_service_s * 1e3,
            rho,
            delay_ms,
            plr_radio,
            plr_queue,
        }
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(power: u8, dist: f64, payload: u16, tries: u8, tpkt: u32, qmax: u16) -> StackConfig {
        StackConfig::builder()
            .power_level(power)
            .distance_m(dist)
            .payload_bytes(payload)
            .max_tries(tries)
            .retry_delay_ms(30)
            .packet_interval_ms(tpkt)
            .queue_cap(qmax)
            .build()
            .unwrap()
    }

    #[test]
    fn budget_snr_matches_pathloss() {
        let b = LinkBudget::paper_hallway();
        let snr = b.snr_db(
            PowerLevel::new(11).unwrap(),
            Distance::from_meters(35.0).unwrap(),
        );
        assert!((snr - 19.0).abs() < 0.5, "snr={snr}");
    }

    #[test]
    fn clean_link_prediction_is_benign() {
        let p = Predictor::paper();
        let pred = p.evaluate(&cfg(31, 10.0, 110, 3, 100, 30));
        assert!(pred.snr_db > 25.0);
        assert!(pred.plr_total() < 1e-3);
        assert!(pred.rho < 0.5);
        assert!(pred.delay_ms < 30.0);
        // Offered load delivered almost in full.
        assert!((pred.offered_goodput_bps - 8_800.0).abs() < 50.0);
    }

    #[test]
    fn grey_zone_overload_shows_queue_loss_and_delay() {
        let p = Predictor::paper();
        // 35 m at minimum power, heavy load: deep grey zone.
        let pred = p.evaluate(&cfg(3, 35.0, 110, 8, 10, 30));
        assert!(pred.snr_db < 12.0);
        assert!(pred.rho > 1.0, "rho={}", pred.rho);
        assert!(pred.plr_queue > 0.3, "plr_queue={}", pred.plr_queue);
        // Saturated 30-deep queue: delay ~ 30 service times.
        assert!(pred.delay_ms > 10.0 * pred.service_time_ms);
    }

    #[test]
    fn evaluate_at_snr_overrides_budget() {
        let p = Predictor::paper();
        let c = cfg(23, 35.0, 110, 3, 30, 30);
        let a = p.evaluate_at_snr(&c, 25.0);
        let b = p.evaluate_at_snr(&c, 8.0);
        assert!(a.plr_radio < b.plr_radio);
        assert!(a.service_time_ms < b.service_time_ms);
    }

    #[test]
    fn max_goodput_at_least_offered_goodput_when_stable() {
        let p = Predictor::paper();
        let pred = p.evaluate(&cfg(27, 20.0, 110, 3, 50, 30));
        assert!(pred.rho < 1.0);
        assert!(pred.max_goodput_bps >= pred.offered_goodput_bps);
    }

    #[test]
    fn scan_equals_evaluate_over_the_paper_grid_on_both_budgets() {
        let grid = ParamGrid::paper();
        for budget in [LinkBudget::paper_hallway(), LinkBudget::case_study()] {
            let p = Predictor {
                budget,
                ..Predictor::paper()
            };
            let mut configs = grid.iter();
            let Ok(flow) = p.scan(&grid, |config, predicted| {
                let expected = configs.next().expect("scan visits no more than the grid");
                assert_eq!(*config, expected);
                // Debug formatting tells −0.0 from 0.0 and prints NaN, so
                // this is bit identity, not float equality.
                assert_eq!(
                    format!("{predicted:?}"),
                    format!("{:?}", p.evaluate(config))
                );
                ControlFlow::<()>::Continue(())
            });
            assert_eq!(flow, ControlFlow::Continue(()));
            assert!(configs.next().is_none(), "scan visits the whole grid");
        }
    }

    #[test]
    fn scan_stops_at_the_first_break() {
        let grid = ParamGrid::paper();
        let p = Predictor::paper();
        let mut visited = 0usize;
        let Ok(flow) = p.scan(&grid, |config, _| {
            visited += 1;
            if visited == 1_000 {
                ControlFlow::Break(*config)
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(grid.config_at(999)));
        assert_eq!(visited, 1_000);
        // An empty axis visits nothing.
        let empty = ParamGrid {
            payloads: vec![],
            ..ParamGrid::paper()
        };
        let Ok(flow) = p.scan(&empty, |_, _| -> ControlFlow<()> {
            panic!("nothing to visit")
        });
        assert_eq!(flow, ControlFlow::Continue(()));
    }

    #[test]
    fn plr_total_in_unit_interval() {
        let p = Predictor::paper();
        for power in [3u8, 11, 23, 31] {
            for tpkt in [10u32, 30, 100] {
                let pred = p.evaluate(&cfg(power, 35.0, 110, 8, tpkt, 1));
                let total = pred.plr_total();
                assert!((0.0..=1.0).contains(&total), "total={total}");
            }
        }
    }
}
