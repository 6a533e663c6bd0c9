//! The per-packet MAC transaction: unslotted CSMA-CA with software ACK and
//! bounded retransmissions.
//!
//! One [`Transaction`] carries a single packet from "handed to the MAC" to
//! either *delivered* (ACK received) or *failed* (transmission budget
//! `NmaxTries` exhausted). The transaction is a pull-driven state machine:
//! the driver (the link simulator) repeatedly calls
//! [`Transaction::advance`], obeys the returned [`Action`] — waiting in a
//! radio state, or consulting the channel for a transmission attempt — and
//! feeds attempt outcomes back via [`Transaction::on_tx_result`].
//!
//! Phase sequence for each attempt (timings in [`crate::timing`]):
//!
//! ```text
//! [SPI load]                                     (first attempt only)
//! initial backoff → CCA → turnaround → TX frame
//!     ├── ACK received  → T_ACK      → Delivered
//!     └── no ACK        → T_waitACK  → tries left? Dretry → next attempt
//!                                      otherwise  → Failed
//! ```
//!
//! On a single interference-free link the CCA always reports an idle
//! channel, matching the paper's single-link deployment; the congestion
//! backoff path exists for completeness and is exercised in tests via
//! [`Transaction::force_congestion`].

use rand::Rng;

use wsn_params::types::{MaxTries, PayloadSize};
use wsn_sim_engine::time::SimDuration;

use crate::timing;

/// What the radio is doing during a [`Action::Wait`] phase; used by the
/// driver to meter energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioActivity {
    /// CPU is loading the frame over the SPI bus; radio idle.
    SpiLoad,
    /// Radio listening (backoff + CCA, or waiting for an ACK).
    Listen,
    /// RX→TX turnaround; PLL settling, drain comparable to TX.
    TxPrep,
    /// Data frame on the air.
    Transmit,
    /// Radio idle between retries (`Dretry`).
    Idle,
}

/// Terminal result of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet was acknowledged after `tries` transmissions.
    Delivered {
        /// Number of transmissions used (1 = first attempt succeeded).
        tries: u8,
    },
    /// The transmission budget was exhausted without an ACK.
    Failed {
        /// Number of transmissions used (equals `NmaxTries`).
        tries: u8,
    },
}

impl TxOutcome {
    /// Number of transmissions used.
    pub fn tries(self) -> u8 {
        match self {
            TxOutcome::Delivered { tries } | TxOutcome::Failed { tries } => tries,
        }
    }

    /// True if the packet was delivered.
    pub fn is_delivered(self) -> bool {
        matches!(self, TxOutcome::Delivered { .. })
    }
}

/// Instruction to the driver, returned by [`Transaction::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Occupy the radio in `activity` for `duration`, then `advance` again.
    Wait {
        /// How long the phase lasts.
        duration: SimDuration,
        /// What the radio is doing meanwhile.
        activity: RadioActivity,
    },
    /// The frame is on the air: consult the channel, then report the result
    /// through [`Transaction::on_tx_result`] before advancing.
    Transmit {
        /// 1-based attempt number.
        try_number: u8,
    },
    /// The transaction is over.
    Complete(TxOutcome),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Load,
    Backoff { congestion: bool },
    Cca,
    Turnaround,
    Transmitting,
    AwaitResult,
    AckTail { acked: bool },
    RetryWait,
    Terminal(TxOutcome),
}

/// The per-packet CSMA-CA transaction state machine.
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use wsn_params::types::{MaxTries, PayloadSize};
/// use wsn_mac::transaction::{Action, Transaction, TxOutcome};
/// use wsn_sim_engine::time::SimDuration;
///
/// let mut tx = Transaction::new(
///     PayloadSize::new(50)?,
///     MaxTries::new(3)?,
///     SimDuration::from_millis(30),
/// );
/// let mut rng = StdRng::seed_from_u64(9);
/// let outcome = loop {
///     match tx.advance(&mut rng) {
///         Action::Wait { .. } => continue,           // a real driver sleeps here
///         Action::Transmit { .. } => tx.on_tx_result(true), // pretend ACK
///         Action::Complete(outcome) => break outcome,
///     }
/// };
/// assert_eq!(outcome, TxOutcome::Delivered { tries: 1 });
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct Transaction {
    payload: PayloadSize,
    max_tries: MaxTries,
    retry_delay: SimDuration,
    /// `T_SPI` for this payload, fixed at construction (the payload never
    /// changes over the transaction's life).
    spi_load: SimDuration,
    /// `T_frame` for this payload, fixed at construction.
    frame_time: SimDuration,
    tries_used: u8,
    phase: Phase,
    force_congestion: u32,
    cca_busy_prob: f64,
    cca_retries: u32,
}

impl Transaction {
    /// Creates the transaction for one packet.
    pub fn new(payload: PayloadSize, max_tries: MaxTries, retry_delay: SimDuration) -> Self {
        Transaction {
            payload,
            max_tries,
            retry_delay,
            spi_load: timing::spi_load(payload),
            frame_time: timing::frame_time(payload),
            tries_used: 0,
            phase: Phase::Load,
            force_congestion: 0,
            cca_busy_prob: 0.0,
            cca_retries: 0,
        }
    }

    /// Sets the probability that each clear-channel assessment reports a
    /// busy medium (e.g. a CCA-detectable interferer's duty cycle). The
    /// transaction then performs TinyOS-style congestion backoff; after
    /// [`Self::MAX_CCA_RETRIES`] consecutive busy CCAs the attempt is sent
    /// anyway (matching the unslotted CSMA behaviour of transmitting after
    /// the backoff budget is spent rather than dropping).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn set_cca_busy_probability(&mut self, prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "CCA busy probability must be in [0, 1], got {prob}"
        );
        self.cca_busy_prob = prob;
    }

    /// Consecutive busy CCAs tolerated before transmitting regardless.
    pub const MAX_CCA_RETRIES: u32 = 16;

    /// The payload this transaction carries.
    pub fn payload(&self) -> PayloadSize {
        self.payload
    }

    /// Transmissions used so far.
    pub fn tries_used(&self) -> u8 {
        self.tries_used
    }

    /// Forces the next `n` CCA checks to report a busy channel, exercising
    /// the congestion-backoff path (single-link runs never take it
    /// naturally).
    pub fn force_congestion(&mut self, n: u32) {
        self.force_congestion = n;
    }

    /// Busy CCAs deferred so far in the current attempt (resets on a clear
    /// assessment). Exposed so an external CCA policy (see
    /// [`advance_with_cca`](Self::advance_with_cca)) can honor the
    /// [`MAX_CCA_RETRIES`](Self::MAX_CCA_RETRIES) transmit-anyway budget.
    pub fn cca_retries(&self) -> u32 {
        self.cca_retries
    }

    /// The configured external-interferer CCA busy probability.
    pub fn cca_busy_probability(&self) -> f64 {
        self.cca_busy_prob
    }

    /// The default clear-channel assessment: samples the configured
    /// external-interferer busy probability (see
    /// [`set_cca_busy_probability`](Self::set_cca_busy_probability)),
    /// drawing from `rng` only when the probability is non-zero and the
    /// transmit-anyway budget has not been spent. This is exactly the
    /// decision [`advance`](Self::advance) makes; it is public so a
    /// shared-channel medium can fall back to it for external noise after
    /// checking real occupancy.
    pub fn sample_cca_busy<R: Rng + ?Sized>(txn: &Self, rng: &mut R) -> bool {
        txn.cca_busy_prob > 0.0
            && txn.cca_retries < Self::MAX_CCA_RETRIES
            && rng.gen::<f64>() < txn.cca_busy_prob
    }

    /// Advances the state machine and returns the next driver instruction.
    ///
    /// # Panics
    ///
    /// Panics if called while a transmission result is outstanding (i.e.
    /// after [`Action::Transmit`] was returned but before
    /// [`on_tx_result`](Self::on_tx_result) was called).
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Action {
        self.advance_with_cca(rng, Self::sample_cca_busy)
    }

    /// Like [`advance`](Self::advance), but delegates the clear-channel
    /// assessment to `cca_busy`, called exactly once per CCA with the
    /// transaction state and the backoff RNG. The multi-link simulator
    /// samples *actual* channel occupancy here; passing
    /// [`sample_cca_busy`](Self::sample_cca_busy) reproduces
    /// [`advance`](Self::advance) bit-for-bit. A [`force_congestion`]
    /// override is applied *before* the callback runs (and does not
    /// suppress it, so RNG consumption is identical either way).
    ///
    /// # Panics
    ///
    /// Panics under the same condition as [`advance`](Self::advance).
    ///
    /// [`force_congestion`]: Self::force_congestion
    pub fn advance_with_cca<R, F>(&mut self, rng: &mut R, cca_busy: F) -> Action
    where
        R: Rng + ?Sized,
        F: FnOnce(&Self, &mut R) -> bool,
    {
        match self.phase {
            Phase::Load => {
                self.phase = Phase::Backoff { congestion: false };
                Action::Wait {
                    duration: self.spi_load,
                    activity: RadioActivity::SpiLoad,
                }
            }
            Phase::Backoff { congestion } => {
                self.phase = Phase::Cca;
                let duration = if congestion {
                    timing::draw_congestion_backoff(rng)
                } else {
                    timing::draw_initial_backoff(rng)
                };
                Action::Wait {
                    duration,
                    activity: RadioActivity::Listen,
                }
            }
            Phase::Cca => {
                let forced = if self.force_congestion > 0 {
                    self.force_congestion -= 1;
                    true
                } else {
                    false
                };
                let sampled = cca_busy(&*self, rng);
                if forced || sampled {
                    self.cca_retries += 1;
                    self.phase = Phase::Backoff { congestion: true };
                    return Action::Wait {
                        duration: timing::CCA_TIME,
                        activity: RadioActivity::Listen,
                    };
                }
                self.cca_retries = 0;
                self.phase = Phase::Turnaround;
                Action::Wait {
                    duration: timing::TURNAROUND,
                    activity: RadioActivity::TxPrep,
                }
            }
            Phase::Turnaround => {
                self.phase = Phase::Transmitting;
                Action::Wait {
                    duration: self.frame_time,
                    activity: RadioActivity::Transmit,
                }
            }
            Phase::Transmitting => {
                self.tries_used += 1;
                self.phase = Phase::AwaitResult;
                Action::Transmit {
                    try_number: self.tries_used,
                }
            }
            Phase::AwaitResult => {
                panic!("advance called before on_tx_result reported the attempt outcome")
            }
            Phase::AckTail { acked } => {
                if acked {
                    self.phase = Phase::Terminal(TxOutcome::Delivered {
                        tries: self.tries_used,
                    });
                } else if self.tries_used < self.max_tries.get() {
                    self.phase = Phase::RetryWait;
                } else {
                    self.phase = Phase::Terminal(TxOutcome::Failed {
                        tries: self.tries_used,
                    });
                }
                let duration = if acked {
                    timing::ACK_RECEIVE
                } else {
                    timing::ACK_TIMEOUT
                };
                Action::Wait {
                    duration,
                    activity: RadioActivity::Listen,
                }
            }
            Phase::RetryWait => {
                self.phase = Phase::Backoff { congestion: false };
                Action::Wait {
                    duration: self.retry_delay,
                    activity: RadioActivity::Idle,
                }
            }
            Phase::Terminal(outcome) => Action::Complete(outcome),
        }
    }

    /// Reports whether the attempt announced by [`Action::Transmit`] was
    /// acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if no transmission result is outstanding.
    pub fn on_tx_result(&mut self, acked: bool) {
        assert!(
            self.phase == Phase::AwaitResult,
            "on_tx_result called with no outstanding transmission"
        );
        self.phase = Phase::AckTail { acked };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn payload() -> PayloadSize {
        PayloadSize::new(50).unwrap()
    }

    fn drive(tx: &mut Transaction, ack_plan: &[bool]) -> (TxOutcome, SimDuration, u32) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = SimDuration::ZERO;
        let mut attempts = 0usize;
        let mut waits = 0u32;
        loop {
            match tx.advance(&mut rng) {
                Action::Wait { duration, .. } => {
                    total += duration;
                    waits += 1;
                }
                Action::Transmit { try_number } => {
                    assert_eq!(try_number as usize, attempts + 1);
                    tx.on_tx_result(ack_plan[attempts]);
                    attempts += 1;
                }
                Action::Complete(outcome) => return (outcome, total, waits),
            }
        }
    }

    #[test]
    fn first_try_success() {
        let mut tx = Transaction::new(payload(), MaxTries::new(3).unwrap(), SimDuration::ZERO);
        let (outcome, _, _) = drive(&mut tx, &[true]);
        assert_eq!(outcome, TxOutcome::Delivered { tries: 1 });
    }

    #[test]
    fn succeeds_on_last_allowed_try() {
        let mut tx = Transaction::new(payload(), MaxTries::new(3).unwrap(), SimDuration::ZERO);
        let (outcome, _, _) = drive(&mut tx, &[false, false, true]);
        assert_eq!(outcome, TxOutcome::Delivered { tries: 3 });
    }

    #[test]
    fn fails_after_budget_exhausted() {
        let mut tx = Transaction::new(payload(), MaxTries::new(3).unwrap(), SimDuration::ZERO);
        let (outcome, _, _) = drive(&mut tx, &[false, false, false]);
        assert_eq!(outcome, TxOutcome::Failed { tries: 3 });
        assert!(!outcome.is_delivered());
    }

    #[test]
    fn no_retransmission_when_budget_is_one() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::from_millis(100));
        let (outcome, _, _) = drive(&mut tx, &[false]);
        assert_eq!(outcome, TxOutcome::Failed { tries: 1 });
    }

    #[test]
    fn service_time_components_for_one_success() {
        // Deterministic expectation apart from the random backoff:
        // SPI + backoff + turnaround + frame + T_ACK.
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        let (_, total, _) = drive(&mut tx, &[true]);
        let fixed = timing::spi_load(payload())
            + timing::TURNAROUND
            + timing::frame_time(payload())
            + timing::ACK_RECEIVE;
        let backoff = total - fixed;
        assert!(backoff.as_micros().is_multiple_of(320), "backoff={backoff}");
        assert!(backoff >= timing::BACKOFF_UNIT && backoff <= timing::BACKOFF_UNIT * 32);
    }

    #[test]
    fn retry_adds_dretry_timeout_and_backoff() {
        let dretry = SimDuration::from_millis(30);
        let mut tx1 = Transaction::new(payload(), MaxTries::new(2).unwrap(), dretry);
        let (_, with_retry, _) = drive(&mut tx1, &[false, true]);
        let mut tx2 = Transaction::new(payload(), MaxTries::ONE, dretry);
        let (_, single, _) = drive(&mut tx2, &[true]);
        // The retry path must cost at least Dretry + T_waitACK − T_ACK more.
        let extra = with_retry - single;
        let min_extra = dretry + timing::ACK_TIMEOUT - timing::ACK_RECEIVE;
        assert!(extra >= min_extra, "extra={extra} min={min_extra}");
    }

    #[test]
    fn spi_load_happens_only_once() {
        // Count SpiLoad waits across a 3-try transaction.
        let mut tx = Transaction::new(payload(), MaxTries::new(3).unwrap(), SimDuration::ZERO);
        let mut rng = StdRng::seed_from_u64(1);
        let mut spi_loads = 0;
        let mut attempts = 0;
        loop {
            match tx.advance(&mut rng) {
                Action::Wait { activity, .. } => {
                    if activity == RadioActivity::SpiLoad {
                        spi_loads += 1;
                    }
                }
                Action::Transmit { .. } => {
                    tx.on_tx_result(attempts == 2);
                    attempts += 1;
                }
                Action::Complete(_) => break,
            }
        }
        assert_eq!(spi_loads, 1);
        assert_eq!(attempts, 3);
    }

    #[test]
    fn congestion_path_adds_short_backoffs() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        tx.force_congestion(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut listens = 0;
        loop {
            match tx.advance(&mut rng) {
                Action::Wait { activity, .. } => {
                    if activity == RadioActivity::Listen {
                        listens += 1;
                    }
                }
                Action::Transmit { .. } => tx.on_tx_result(true),
                Action::Complete(_) => break,
            }
        }
        // initial backoff + 2×(CCA-busy + congestion backoff) + final ACK listen
        // = 1 + 4 + 1 listens, plus the successful CCA is silent (no wait).
        assert!(listens >= 6, "listens={listens}");
    }

    #[test]
    fn probabilistic_cca_busy_defers_transmission() {
        // Aggregate over many transactions: with 60 % busy CCAs the mean
        // listen count per packet must clearly exceed the clear-channel
        // baseline of 2 (initial backoff + ACK reception).
        let mut rng = StdRng::seed_from_u64(77);
        let mut listens = 0u32;
        let transactions = 50;
        for _ in 0..transactions {
            let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
            tx.set_cca_busy_probability(0.6);
            loop {
                match tx.advance(&mut rng) {
                    Action::Wait { activity, .. } => {
                        if activity == RadioActivity::Listen {
                            listens += 1;
                        }
                    }
                    Action::Transmit { .. } => tx.on_tx_result(true),
                    Action::Complete(_) => break,
                }
            }
        }
        // E[extra listens] = 2 × E[busy CCAs] = 2 × 0.6/0.4 = 3 per packet.
        let mean = listens as f64 / transactions as f64;
        assert!(mean > 3.0, "mean listens per packet = {mean}");
    }

    #[test]
    fn cca_busy_one_transmits_after_retry_budget() {
        // Even a permanently-busy channel must eventually transmit (the
        // unslotted CSMA budget behaviour), not loop forever.
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        tx.set_cca_busy_probability(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut steps = 0u32;
        loop {
            steps += 1;
            assert!(steps < 10_000, "transaction did not terminate");
            match tx.advance(&mut rng) {
                Action::Wait { .. } => {}
                Action::Transmit { .. } => tx.on_tx_result(true),
                Action::Complete(outcome) => {
                    assert!(outcome.is_delivered());
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CCA busy probability")]
    fn invalid_cca_probability_rejected() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        tx.set_cca_busy_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "no outstanding transmission")]
    fn result_without_transmit_panics() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        tx.on_tx_result(true);
    }

    #[test]
    #[should_panic(expected = "before on_tx_result")]
    fn advance_with_outstanding_result_panics() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        let mut rng = StdRng::seed_from_u64(2);
        loop {
            match tx.advance(&mut rng) {
                Action::Transmit { .. } => {
                    // Skip on_tx_result and advance again: must panic.
                    let _ = tx.advance(&mut rng);
                    unreachable!();
                }
                Action::Wait { .. } => continue,
                Action::Complete(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn precomputed_phase_durations_match_timing_module() {
        // The SPI-load and frame-time waits are fixed at construction;
        // they must equal the timing-module functions for the payload.
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        let mut rng = StdRng::seed_from_u64(11);
        let mut saw_spi = false;
        let mut saw_frame = false;
        loop {
            match tx.advance(&mut rng) {
                Action::Wait { duration, activity } => match activity {
                    RadioActivity::SpiLoad => {
                        assert_eq!(duration, timing::spi_load(payload()));
                        saw_spi = true;
                    }
                    RadioActivity::Transmit => {
                        assert_eq!(duration, timing::frame_time(payload()));
                        saw_frame = true;
                    }
                    _ => {}
                },
                Action::Transmit { .. } => tx.on_tx_result(true),
                Action::Complete(_) => break,
            }
        }
        assert!(saw_spi && saw_frame);
    }

    #[test]
    fn complete_is_idempotent() {
        let mut tx = Transaction::new(payload(), MaxTries::ONE, SimDuration::ZERO);
        let (outcome, _, _) = drive(&mut tx, &[true]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(tx.advance(&mut rng), Action::Complete(outcome));
        assert_eq!(tx.advance(&mut rng), Action::Complete(outcome));
    }
}
