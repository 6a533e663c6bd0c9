//! Multi-objective parameter optimization (Sec. VIII-B).
//!
//! The paper formulates joint tuning as a multi-objective optimization
//! problem `min(M1(c), …, Mk(c))` over subsets of the seven stack
//! parameters and solves instances with the epsilon-constraint method.
//! Because the experimented grid is finite (8064 configurations per
//! distance), both the exact Pareto front and epsilon-constrained optima
//! are computed by exhaustive evaluation with the analytic
//! [`Predictor`] — the same approach the paper's case study takes.

use std::convert::Infallible;
use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;

use crate::predict::{Predicted, Predictor};

/// One of the four performance metrics, in minimization sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Minimize energy per information bit (`E`).
    Energy,
    /// Maximize maximum goodput (`G`, internally negated).
    Goodput,
    /// Minimize predicted delay (`D`).
    Delay,
    /// Minimize total packet loss rate (`L`).
    Loss,
}

impl Metric {
    /// The value of this metric for a prediction, in minimization sense
    /// (goodput is negated so that smaller is always better).
    pub fn value(self, p: &Predicted) -> f64 {
        match self {
            Metric::Energy => p.u_eng_uj_per_bit,
            Metric::Goodput => -p.max_goodput_bps,
            Metric::Delay => p.delay_ms,
            Metric::Loss => p.plr_total(),
        }
    }

    /// The natural-sense reading (goodput positive again).
    pub fn display_value(self, p: &Predicted) -> f64 {
        match self {
            Metric::Goodput => p.max_goodput_bps,
            other => other.value(p),
        }
    }
}

/// A configuration together with its predicted performance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The candidate configuration.
    pub config: StackConfig,
    /// Its model-predicted metrics.
    pub predicted: Predicted,
}

/// Exhaustive multi-objective optimizer over a parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    /// The analytic evaluator.
    pub predictor: Predictor,
}

impl Optimizer {
    /// An optimizer with the paper's published models and link budget.
    pub fn paper() -> Self {
        Optimizer {
            predictor: Predictor::paper(),
        }
    }

    /// Evaluates every configuration of the grid, in grid order.
    pub fn evaluate_grid(&self, grid: &ParamGrid) -> Vec<Evaluation> {
        let mut evals = Vec::with_capacity(grid.len());
        self.for_each(grid, |config, predicted| {
            evals.push(Evaluation {
                config: *config,
                predicted: *predicted,
            })
        });
        evals
    }

    /// Hands every configuration of the grid and its prediction to
    /// `visit`, in grid order, through [`Predictor::scan`].
    fn for_each(&self, grid: &ParamGrid, mut visit: impl FnMut(&StackConfig, &Predicted)) {
        let _: ControlFlow<Infallible> = self.predictor.scan(grid, |config, predicted| {
            visit(config, predicted);
            ControlFlow::Continue(())
        });
    }

    /// The exact Pareto front of the grid under the given metrics
    /// (all in minimization sense). Dominated and duplicate-valued points
    /// are removed; the front is sorted by the first metric.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` is empty.
    pub fn pareto_front(&self, grid: &ParamGrid, metrics: &[Metric]) -> Vec<Evaluation> {
        assert!(!metrics.is_empty(), "need at least one metric");
        let evals = self.evaluate_grid(grid);
        let k = metrics.len();
        let mut values = Vec::with_capacity(evals.len() * k);
        for e in &evals {
            values.extend(metrics.iter().map(|m| m.value(&e.predicted)));
        }
        let mut front = pareto_front_indices(&values, k);
        front.sort_by(|&a, &b| {
            values[a * k]
                .partial_cmp(&values[b * k])
                .expect("finite values compare")
        });
        front.into_iter().map(|i| evals[i]).collect()
    }

    /// The epsilon-constraint method: minimizes `objective` subject to
    /// `metric ≤ epsilon` for every `(metric, epsilon)` constraint.
    /// Returns `None` when no grid point is feasible; among equal optima
    /// the first in grid order wins.
    pub fn epsilon_constraint(
        &self,
        grid: &ParamGrid,
        objective: Metric,
        constraints: &[(Metric, f64)],
    ) -> Option<Evaluation> {
        let mut best: Option<(Evaluation, f64)> = None;
        self.for_each(grid, |config, predicted| {
            if !constraints
                .iter()
                .all(|(m, eps)| m.value(predicted) <= *eps)
            {
                return;
            }
            let value = objective.value(predicted);
            if value.is_finite() && best.is_none_or(|(_, b)| value < b) {
                let evaluation = Evaluation {
                    config: *config,
                    predicted: *predicted,
                };
                best = Some((evaluation, value));
            }
        });
        best.map(|(evaluation, _)| evaluation)
    }

    /// The paper's case-study formulation (Sec. VIII-B): maximize goodput
    /// while keeping the energy per bit within `slack` (e.g. 1.1 = 10 %)
    /// of the best energy achievable anywhere on the grid.
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0`.
    pub fn joint_energy_goodput(&self, grid: &ParamGrid, slack: f64) -> Option<Evaluation> {
        assert!(slack >= 1.0, "slack must be >= 1.0, got {slack}");
        let mut best_energy = f64::INFINITY;
        self.for_each(grid, |_, predicted| {
            if predicted.u_eng_uj_per_bit.is_finite() {
                best_energy = best_energy.min(predicted.u_eng_uj_per_bit);
            }
        });
        if !best_energy.is_finite() {
            return None;
        }
        self.epsilon_constraint(
            grid,
            Metric::Goodput,
            &[(Metric::Energy, best_energy * slack)],
        )
    }

    /// Weighted-sum scalarization: minimizes `Σ wᵢ · norm(Mᵢ)` where each
    /// metric is min–max normalized over the grid. A standard cross-check
    /// for the epsilon-constraint method: with positive weights the
    /// minimizer always lies on the Pareto front.
    ///
    /// Returns `None` for an empty grid or when no point has finite
    /// values on every metric.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is non-positive.
    pub fn weighted_sum(&self, grid: &ParamGrid, weights: &[(Metric, f64)]) -> Option<Evaluation> {
        assert!(!weights.is_empty(), "need at least one weighted metric");
        assert!(
            weights.iter().all(|(_, w)| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let evals = self.evaluate_grid(grid);
        let k = weights.len();
        let mut values = Vec::with_capacity(evals.len() * k);
        for e in &evals {
            values.extend(weights.iter().map(|(m, _)| m.value(&e.predicted)));
        }
        // Min-max bounds per metric over finite points.
        let mut lo = vec![f64::INFINITY; k];
        let mut hi = vec![f64::NEG_INFINITY; k];
        for v in values.chunks_exact(k) {
            if v.iter().all(|x| x.is_finite()) {
                for i in 0..k {
                    lo[i] = lo[i].min(v[i]);
                    hi[i] = hi[i].max(v[i]);
                }
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, v) in values.chunks_exact(k).enumerate() {
            if !v.iter().all(|x| x.is_finite()) {
                continue;
            }
            let score: f64 = (0..k)
                .map(|i| {
                    let span = hi[i] - lo[i];
                    let norm = if span > 0.0 {
                        (v[i] - lo[i]) / span
                    } else {
                        0.0
                    };
                    weights[i].1 * norm
                })
                .sum();
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((idx, score));
            }
        }
        best.map(|(idx, _)| evals[idx])
    }

    /// The knee point of a two-metric Pareto front: the member with the
    /// greatest normalized distance below the chord between the front's
    /// endpoints — the "best bang for the buck" compromise.
    ///
    /// Returns `None` when the front has fewer than three points (no
    /// interior point to pick).
    pub fn knee_point(&self, grid: &ParamGrid, metrics: [Metric; 2]) -> Option<Evaluation> {
        let front = self.pareto_front(grid, &metrics);
        let xy: Vec<(f64, f64)> = front
            .iter()
            .map(|e| {
                (
                    metrics[0].value(&e.predicted),
                    metrics[1].value(&e.predicted),
                )
            })
            .collect();
        knee_of_front(&xy).map(|i| front[i])
    }
}

/// The knee index of a two-metric Pareto front sorted by its first
/// coordinate: the member with the greatest normalized distance below the
/// chord between the front's endpoints. Returns `None` when the front has
/// fewer than three points (no interior point to pick).
pub fn knee_of_front(xy: &[(f64, f64)]) -> Option<usize> {
    if xy.len() < 3 {
        return None;
    }
    let (x0, y0) = xy[0];
    let (x1, y1) = xy[xy.len() - 1];
    let span_x = (x1 - x0).abs().max(f64::MIN_POSITIVE);
    let span_y = (y0 - y1).abs().max(f64::MIN_POSITIVE);
    let mut best: Option<(usize, f64)> = None;
    for (i, &(x, y)) in xy.iter().enumerate().skip(1).take(xy.len() - 2) {
        // Normalized signed distance below the chord.
        let tx = (x - x0) / span_x;
        let chord_y = y0 + (y1 - y0) * tx.clamp(0.0, 1.0);
        let dist = (chord_y - y) / span_y;
        if best.is_none_or(|(_, d)| dist > d) {
            best = Some((i, dist));
        }
    }
    best.map(|(i, _)| i)
}

/// Indices of the exact Pareto front of `values`, ascending. `values`
/// holds one row of `width` metrics per candidate, row after row, all in
/// minimization sense. Rows with any non-finite coordinate never join the
/// front; among duplicate-valued rows only the first survives. Candidates
/// are compared incrementally against the running front (an archive), so
/// the cost is `O(n · |front|)` rather than `O(n²)`.
///
/// # Panics
///
/// Panics if `width` is zero or does not divide `values.len()`.
pub fn pareto_front_indices(values: &[f64], width: usize) -> Vec<usize> {
    assert!(
        width > 0 && values.len().is_multiple_of(width),
        "{} values do not form rows of width {width}",
        values.len()
    );
    let row = |i: usize| &values[i * width..(i + 1) * width];
    let mut front: Vec<usize> = Vec::new();
    'candidate: for (i, v) in values.chunks_exact(width).enumerate() {
        if v.iter().any(|x| !x.is_finite()) {
            continue;
        }
        let mut j = 0;
        while j < front.len() {
            let f = row(front[j]);
            if dominates(f, v) || f == v {
                continue 'candidate;
            }
            if dominates(v, f) {
                front.swap_remove(j);
            } else {
                j += 1;
            }
        }
        front.push(i);
    }
    front.sort_unstable();
    front
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::paper()
    }
}

/// True if `a` Pareto-dominates `b` (all coordinates ≤, at least one <).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small grid on the 35 m link (the paper's case-study distance).
    fn small_grid() -> ParamGrid {
        ParamGrid {
            distances_m: vec![35.0],
            power_levels: vec![3, 11, 19, 23, 31],
            max_tries: vec![1, 3, 8],
            retry_delays_ms: vec![0],
            queue_caps: vec![30],
            packet_intervals_ms: vec![30],
            payloads: vec![5, 35, 68, 110, 114],
        }
    }

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 1.0]));
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let opt = Optimizer::paper();
        let metrics = [Metric::Energy, Metric::Goodput];
        let front = opt.pareto_front(&small_grid(), &metrics);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                let va: Vec<f64> = metrics.iter().map(|m| m.value(&a.predicted)).collect();
                let vb: Vec<f64> = metrics.iter().map(|m| m.value(&b.predicted)).collect();
                assert!(!dominates(&va, &vb), "front member dominated");
            }
        }
    }

    #[test]
    fn front_dominates_or_ties_everything_else() {
        let opt = Optimizer::paper();
        let metrics = [Metric::Energy, Metric::Goodput];
        let grid = small_grid();
        let front = opt.pareto_front(&grid, &metrics);
        for e in opt.evaluate_grid(&grid) {
            let ve: Vec<f64> = metrics.iter().map(|m| m.value(&e.predicted)).collect();
            if !ve.iter().all(|v| v.is_finite()) {
                continue;
            }
            let covered = front.iter().any(|f| {
                let vf: Vec<f64> = metrics.iter().map(|m| m.value(&f.predicted)).collect();
                dominates(&vf, &ve) || vf == ve
            });
            assert!(covered, "grid point not covered by the front");
        }
    }

    #[test]
    fn epsilon_constraint_respects_constraints() {
        let opt = Optimizer::paper();
        let best = opt
            .epsilon_constraint(&small_grid(), Metric::Goodput, &[(Metric::Energy, 0.5)])
            .unwrap();
        assert!(best.predicted.u_eng_uj_per_bit <= 0.5);
        // Unconstrained goodput optimum is at least as fast.
        let unconstrained = opt
            .epsilon_constraint(&small_grid(), Metric::Goodput, &[])
            .unwrap();
        assert!(unconstrained.predicted.max_goodput_bps >= best.predicted.max_goodput_bps);
    }

    #[test]
    fn epsilon_constraint_infeasible_returns_none() {
        let opt = Optimizer::paper();
        assert!(opt
            .epsilon_constraint(&small_grid(), Metric::Goodput, &[(Metric::Energy, 1e-9)])
            .is_none());
    }

    #[test]
    fn joint_energy_goodput_beats_naive_min_payload() {
        let opt = Optimizer::paper();
        let grid = small_grid();
        let joint = opt.joint_energy_goodput(&grid, 1.15).unwrap();
        // Compare against the minimum-payload single-tuning point at the
        // same distance (the paper's worst baseline).
        let naive = StackConfig::builder()
            .distance_m(35.0)
            .power_level(23)
            .payload_bytes(5)
            .max_tries(1)
            .packet_interval_ms(30)
            .queue_cap(30)
            .retry_delay_ms(0)
            .build()
            .unwrap();
        let naive_pred = opt.predictor.evaluate(&naive);
        assert!(joint.predicted.max_goodput_bps > naive_pred.max_goodput_bps * 2.0);
    }

    #[test]
    fn metric_display_value_restores_sign() {
        let p = Predictor::paper();
        let pred = p.evaluate(&StackConfig::default());
        assert_eq!(Metric::Goodput.display_value(&pred), pred.max_goodput_bps);
        assert_eq!(Metric::Energy.display_value(&pred), pred.u_eng_uj_per_bit);
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn empty_metric_list_panics() {
        let opt = Optimizer::paper();
        let _ = opt.pareto_front(&small_grid(), &[]);
    }

    #[test]
    fn epsilon_constraint_winner_always_lies_on_the_front() {
        // Property: for any objective and any constraint set, the
        // epsilon-constraint winner is Pareto-optimal over the metric set
        // {objective} ∪ {constrained metrics}. Randomized over a
        // deterministic LCG so failures reproduce.
        let opt = Optimizer::paper();
        let grid = small_grid();
        let all = [Metric::Energy, Metric::Goodput, Metric::Delay, Metric::Loss];
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..50 {
            let objective = all[(next() % 4) as usize];
            let mut metrics = vec![objective];
            let mut constraints = Vec::new();
            for _ in 0..(next() % 3) {
                let m = all[(next() % 4) as usize];
                // Anchor the bound to a real grid value so some runs are
                // tight and some loose, but most are feasible.
                let anchor = opt
                    .evaluate_grid(&grid)
                    .into_iter()
                    .map(|e| m.value(&e.predicted))
                    .filter(|v| v.is_finite())
                    .nth((next() % 20) as usize)
                    .unwrap_or(f64::INFINITY);
                constraints.push((m, anchor * (1.0 + f64::from(next() % 10) / 100.0)));
                if !metrics.contains(&m) {
                    metrics.push(m);
                }
            }
            let Some(winner) = opt.epsilon_constraint(&grid, objective, &constraints) else {
                continue;
            };
            // Epsilon-constraint optima are weakly Pareto optimal: under
            // objective ties the grid-order pick may be dominated in the
            // secondary metrics, but a feasible front member always
            // attains the same objective value.
            let wobj = objective.value(&winner.predicted);
            let front = opt.pareto_front(&grid, &metrics);
            assert!(
                front.iter().any(|f| {
                    objective.value(&f.predicted) == wobj
                        && constraints
                            .iter()
                            .all(|(m, eps)| m.value(&f.predicted) <= *eps)
                }),
                "winner objective {wobj} for {objective:?} s.t. {constraints:?} \
                 is not attained on the front"
            );
        }
    }

    #[test]
    fn pareto_front_indices_rejects_non_finite_and_keeps_first_duplicate() {
        let values = [
            1.0,
            4.0, //
            2.0,
            f64::NAN, //
            1.0,
            4.0, // duplicate of row 0
            0.5,
            f64::INFINITY, // non-finite never joins
            3.0,
            1.0, //
            2.0,
            2.0, //
            4.0,
            4.0, // dominated by rows 0 and 5
        ];
        assert_eq!(pareto_front_indices(&values, 2), vec![0, 4, 5]);
        // A later candidate evicts an earlier front member it dominates.
        let evict = [2.0, 2.0, 1.0, 1.0];
        assert_eq!(pareto_front_indices(&evict, 2), vec![1]);
        // Three metrics per row.
        let three = [1.0, 2.0, 3.0, 1.0, 2.0, 4.0, 0.0, 5.0, 5.0];
        assert_eq!(pareto_front_indices(&three, 3), vec![0, 2]);
    }

    #[test]
    fn knee_of_front_matches_knee_point() {
        let opt = Optimizer::paper();
        let grid = small_grid();
        let metrics = [Metric::Energy, Metric::Goodput];
        let front = opt.pareto_front(&grid, &metrics);
        let xy: Vec<(f64, f64)> = front
            .iter()
            .map(|e| {
                (
                    metrics[0].value(&e.predicted),
                    metrics[1].value(&e.predicted),
                )
            })
            .collect();
        match opt.knee_point(&grid, metrics) {
            Some(knee) => {
                let i = knee_of_front(&xy).expect("interior point");
                assert_eq!(front[i].config, knee.config);
            }
            None => assert!(knee_of_front(&xy).is_none()),
        }
        assert!(knee_of_front(&[(0.0, 1.0), (1.0, 0.0)]).is_none());
    }

    #[test]
    fn weighted_sum_minimizer_is_on_the_pareto_front() {
        let opt = Optimizer::paper();
        let grid = small_grid();
        let metrics = [Metric::Energy, Metric::Goodput];
        let front = opt.pareto_front(&grid, &metrics);
        for weights in [
            [(Metric::Energy, 1.0), (Metric::Goodput, 1.0)],
            [(Metric::Energy, 5.0), (Metric::Goodput, 1.0)],
            [(Metric::Energy, 1.0), (Metric::Goodput, 5.0)],
        ] {
            let best = opt.weighted_sum(&grid, &weights).expect("non-empty grid");
            let bv: Vec<f64> = metrics.iter().map(|m| m.value(&best.predicted)).collect();
            let on_front = front.iter().any(|f| {
                let fv: Vec<f64> = metrics.iter().map(|m| m.value(&f.predicted)).collect();
                fv == bv
            });
            assert!(on_front, "weighted-sum optimum off the front: {bv:?}");
        }
    }

    #[test]
    fn weighted_sum_follows_the_weights() {
        let opt = Optimizer::paper();
        let grid = small_grid();
        let energy_heavy = opt
            .weighted_sum(&grid, &[(Metric::Energy, 100.0), (Metric::Goodput, 1.0)])
            .unwrap();
        let goodput_heavy = opt
            .weighted_sum(&grid, &[(Metric::Energy, 1.0), (Metric::Goodput, 100.0)])
            .unwrap();
        assert!(
            energy_heavy.predicted.u_eng_uj_per_bit <= goodput_heavy.predicted.u_eng_uj_per_bit
        );
        assert!(goodput_heavy.predicted.max_goodput_bps >= energy_heavy.predicted.max_goodput_bps);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_sum_rejects_non_positive_weights() {
        let opt = Optimizer::paper();
        let _ = opt.weighted_sum(&small_grid(), &[(Metric::Energy, 0.0)]);
    }

    #[test]
    fn knee_point_is_an_interior_front_member() {
        let opt = Optimizer::paper();
        let grid = small_grid();
        let metrics = [Metric::Energy, Metric::Goodput];
        let front = opt.pareto_front(&grid, &metrics);
        if front.len() < 3 {
            return; // degenerate front: nothing to assert
        }
        let knee = opt.knee_point(&grid, metrics).expect("front has interior");
        let kv = (
            Metric::Energy.value(&knee.predicted),
            Metric::Goodput.value(&knee.predicted),
        );
        let first = &front[0];
        let last = &front[front.len() - 1];
        assert!(front.iter().any(|f| {
            (
                Metric::Energy.value(&f.predicted),
                Metric::Goodput.value(&f.predicted),
            ) == kv
        }));
        // It is neither extreme.
        assert_ne!(knee.config, first.config);
        assert_ne!(knee.config, last.config);
    }
}
