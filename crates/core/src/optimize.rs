//! Multi-objective parameter optimization (Sec. VIII-B).
//!
//! The paper formulates joint tuning as a multi-objective optimization
//! problem `min(M1(c), …, Mk(c))` over subsets of the seven stack
//! parameters and solves instances with the epsilon-constraint method.
//! Because the experimented grid is finite (8064 configurations per
//! distance), both the exact Pareto front and epsilon-constrained optima
//! are computed by exhaustive evaluation — the same approach the paper's
//! case study takes.
//!
//! The selection rules are written once, as provided methods of
//! [`GridScan`], over any backend that can score a grid: the analytic
//! [`Predictor`], the closed-form engine of `wsn-analytic`, or a wrapper
//! that stops a scan at a deadline. [`Optimizer`] runs them on its
//! predictor.

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

    /// The natural-sense reading of a minimization-sense `value` (goodput
    /// positive again).
    pub fn display_value(self, value: f64) -> f64 {
        match self {
            Metric::Goodput => -value,
            _ => value,
        }
    }
}

/// A backend that scores every configuration of a grid: the one seam the
/// selection rules see. A scan that always finishes has `Stop =
/// Infallible`; one that can give up part way (a request deadline) stops
/// with its own error, which every rule returns as soon as the scan does.
pub trait GridScan {
    /// One configuration's score.
    type Score;
    /// Why a scan stopped before the end of the grid.
    type Stop;

    /// `metric` of `score` in minimization sense: goodput is negated so
    /// that smaller is always better, and an infeasible operating point
    /// reads `INFINITY` (energy with zero delivery).
    fn value(score: &Self::Score, metric: Metric) -> f64;

    /// Scores every configuration of `grid`, in [`ParamGrid::iter`]
    /// order, handing each to `visit` until it breaks.
    ///
    /// # Errors
    ///
    /// Returns [`Self::Stop`](GridScan::Stop) when the scan gives up.
    fn scan<B>(
        &self,
        grid: &ParamGrid,
        visit: impl FnMut(&StackConfig, &Self::Score) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, Self::Stop>;

    /// The objective value of `score` when every `(metric, max)`
    /// constraint holds and the value is finite; `None` marks the
    /// candidate infeasible.
    fn feasible(
        score: &Self::Score,
        objective: Metric,
        constraints: &[(Metric, f64)],
    ) -> Option<f64> {
        let holds = |(m, max): &(Metric, f64)| Self::value(score, *m) <= *max;
        let value = Self::value(score, objective);
        (constraints.iter().all(holds) && value.is_finite()).then_some(value)
    }

    /// The epsilon-constraint method: minimizes `objective` subject to
    /// `metric ≤ epsilon` for every `(metric, epsilon)` constraint.
    /// Returns `None` when no grid point is feasible; among equal optima
    /// the first in grid order wins.
    fn epsilon_constraint(
        &self,
        grid: &ParamGrid,
        objective: Metric,
        constraints: &[(Metric, f64)],
    ) -> Result<Option<StackConfig>, Self::Stop> {
        let mut best: Option<(StackConfig, f64)> = None;
        visit_all(self, grid, |config, score| {
            let value = Self::feasible(score, objective, constraints);
            if let Some(value) = value.filter(|v| best.is_none_or(|(_, b)| *v < b)) {
                best = Some((*config, value));
            }
        })?;
        Ok(best.map(|(config, _)| config))
    }

    /// The paper's case-study formulation (Sec. VIII-B): maximize goodput
    /// while keeping the energy per bit within `slack` (e.g. 1.1 = 10 %)
    /// of the best energy achievable anywhere on the grid.
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0`.
    fn joint_energy_goodput(
        &self,
        grid: &ParamGrid,
        slack: f64,
    ) -> Result<Option<StackConfig>, Self::Stop> {
        assert!(slack >= 1.0, "slack must be >= 1.0, got {slack}");
        let energies = rows(self, grid, &[Metric::Energy])?;
        let finite = energies.into_iter().filter(|e| e.is_finite());
        let Some(best_energy) = finite.reduce(f64::min) else {
            return Ok(None);
        };
        let constraint = [(Metric::Energy, best_energy * slack)];
        self.epsilon_constraint(grid, Metric::Goodput, &constraint)
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
    fn weighted_sum(
        &self,
        grid: &ParamGrid,
        weights: &[(Metric, f64)],
    ) -> Result<Option<StackConfig>, Self::Stop> {
        assert!(!weights.is_empty(), "need at least one weighted metric");
        assert!(
            weights.iter().all(|(_, w)| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let k = weights.len();
        let metrics: Vec<Metric> = weights.iter().map(|(m, _)| *m).collect();
        let values = rows(self, grid, &metrics)?;
        let finite =
            (values.chunks_exact(k).enumerate()).filter(|(_, v)| v.iter().all(|x| x.is_finite()));
        // Min-max bounds per metric over finite points.
        let mut lo = vec![f64::INFINITY; k];
        let mut hi = vec![f64::NEG_INFINITY; k];
        for (_, v) in finite.clone() {
            for i in 0..k {
                lo[i] = lo[i].min(v[i]);
                hi[i] = hi[i].max(v[i]);
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (idx, v) in finite {
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
        Ok(best.map(|(idx, _)| grid.config_at(idx)))
    }

    /// The exact Pareto front of the grid under `metrics` (all in
    /// minimization sense): each member with its values in `metrics`
    /// order. Dominated and duplicate-valued points are removed; the
    /// front is sorted by the first metric, ties in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` is empty.
    fn pareto_front(&self, grid: &ParamGrid, metrics: &[Metric]) -> Result<Front, Self::Stop> {
        assert!(!metrics.is_empty(), "need at least one metric");
        let k = metrics.len();
        let values = rows(self, grid, metrics)?;
        let row = |i: usize| &values[i * k..(i + 1) * k];
        let mut members = pareto_front_indices(&values, k);
        members.sort_by(|&a, &b| {
            row(a)[0]
                .partial_cmp(&row(b)[0])
                .expect("front values are finite")
        });
        Ok(members
            .into_iter()
            .map(|i| (grid.config_at(i), row(i).to_vec()))
            .collect())
    }
}

/// A Pareto front from [`GridScan::pareto_front`]: its members, sorted by
/// the first metric, each with its metric values in minimization sense.
pub type Front = Vec<(StackConfig, Vec<f64>)>;

/// The knee member of a two-metric `front` ([`knee_of_front`]); `None`
/// under any other number of metrics.
pub fn knee(front: &Front) -> Option<usize> {
    let xy = front.iter().map(|(_, v)| match v[..] {
        [x, y] => Some((x, y)),
        _ => None,
    });
    knee_of_front(&xy.collect::<Option<Vec<_>>>()?)
}

/// Scans the whole grid, handing every score to `visit`.
fn visit_all<S: GridScan + ?Sized>(
    scanner: &S,
    grid: &ParamGrid,
    mut visit: impl FnMut(&StackConfig, &S::Score),
) -> Result<(), S::Stop> {
    let flow = scanner.scan(grid, |config, score| {
        visit(config, score);
        ControlFlow::<Infallible>::Continue(())
    });
    flow.map(drop)
}

/// Every candidate's `metrics`, in one flat buffer of one row per
/// candidate.
fn rows<S: GridScan + ?Sized>(
    scanner: &S,
    grid: &ParamGrid,
    metrics: &[Metric],
) -> Result<Vec<f64>, S::Stop> {
    let mut values = Vec::with_capacity(grid.len() * metrics.len());
    visit_all(scanner, grid, |_, score| {
        values.extend(metrics.iter().map(|m| S::value(score, *m)));
    })?;
    Ok(values)
}

/// A configuration together with its predicted performance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The candidate configuration.
    pub config: StackConfig,
    /// Its model-predicted metrics.
    pub predicted: Predicted,
}

/// Exhaustive multi-objective optimizer over a parameter grid: the
/// [`GridScan`] rules on its predictor, each winner with its prediction.
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
        grid.iter().map(|config| self.evaluation(config)).collect()
    }

    /// `config` with its prediction (bit-identical to a scan's).
    fn evaluation(&self, config: StackConfig) -> Evaluation {
        let predicted = self.predictor.evaluate(&config);
        Evaluation { config, predicted }
    }

    /// [`GridScan::pareto_front`] on the predictor.
    pub fn pareto_front(&self, grid: &ParamGrid, metrics: &[Metric]) -> Vec<Evaluation> {
        let Ok(front) = self.predictor.pareto_front(grid, metrics);
        front.into_iter().map(|(c, _)| self.evaluation(c)).collect()
    }

    /// [`GridScan::epsilon_constraint`] on the predictor.
    pub fn epsilon_constraint(
        &self,
        grid: &ParamGrid,
        objective: Metric,
        constraints: &[(Metric, f64)],
    ) -> Option<Evaluation> {
        let Ok(best) = (self.predictor).epsilon_constraint(grid, objective, constraints);
        best.map(|c| self.evaluation(c))
    }

    /// [`GridScan::joint_energy_goodput`] on the predictor.
    pub fn joint_energy_goodput(&self, grid: &ParamGrid, slack: f64) -> Option<Evaluation> {
        let Ok(best) = self.predictor.joint_energy_goodput(grid, slack);
        best.map(|c| self.evaluation(c))
    }

    /// [`GridScan::weighted_sum`] on the predictor.
    pub fn weighted_sum(&self, grid: &ParamGrid, weights: &[(Metric, f64)]) -> Option<Evaluation> {
        let Ok(best) = self.predictor.weighted_sum(grid, weights);
        best.map(|c| self.evaluation(c))
    }

    /// The knee point of a two-metric Pareto front ([`knee`]): the "best
    /// bang for the buck" compromise. Returns `None` when the front has
    /// fewer than three points (no interior point to pick).
    pub fn knee_point(&self, grid: &ParamGrid, metrics: [Metric; 2]) -> Option<Evaluation> {
        let Ok(front) = self.predictor.pareto_front(grid, &metrics);
        knee(&front).map(|i| self.evaluation(front[i].0))
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
        let display = |m: Metric| m.display_value(m.value(&pred));
        assert_eq!(display(Metric::Goodput), pred.max_goodput_bps);
        assert_eq!(display(Metric::Energy), pred.u_eng_uj_per_bit);
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
