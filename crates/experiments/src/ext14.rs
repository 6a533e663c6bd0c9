//! Extension 14: budgeted exploration vs. the exhaustive analytic scan.
//!
//! The serve layer's `explore` op answers constrained searches under a
//! hard evaluation budget ([`wsn_models::explore::explore_grid`]:
//! coprime-stride sweep → successive halving → hill climb) instead of
//! scanning all 8064 per-distance candidates the way `tune` does. This
//! experiment publishes the price of that shortcut: the winner's
//! objective regret against the exhaustive analytic scan of the 35 m
//! grid slice at budgets of 1/4 and 1/16 of the grid, next to the
//! evaluations saved. The shipped claim (pinned by the tests) is ≤ 5 %
//! energy regret at a quarter of the grid.

use wsn_analytic::runner::{AnalyticScan, EngineRunner};
use wsn_link_sim::traffic::TrafficModel;
use wsn_models::explore::explore_grid;
use wsn_models::optimize::{GridScan, Metric};
use wsn_params::grid::ParamGrid;
use wsn_radio::channel::ChannelConfig;

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};

/// The shipped claim: worst-case energy regret at a quarter-grid budget.
pub const QUARTER_BUDGET_REGRET: f64 = 0.05;

/// The studied slice: every non-distance axis of the paper grid at 35 m
/// (the distance where the configuration space matters most).
fn slice() -> ParamGrid {
    ParamGrid {
        distances_m: vec![35.0],
        ..ParamGrid::paper()
    }
}

/// One budget row of the study.
struct BudgetRun {
    budget: u64,
    evaluations: u64,
    found: f64,
}

fn run_budget(scan: &AnalyticScan, grid: &ParamGrid, budget: u64) -> BudgetRun {
    let outcome = explore_grid(grid, budget, |_, config| {
        let energy = scan.metrics(*config).u_eng_uj_per_bit;
        Ok::<_, std::convert::Infallible>(Some(energy))
    })
    .expect("infallible evaluator")
    .expect("feasible grid");
    BudgetRun {
        budget,
        evaluations: outcome.evaluations,
        found: outcome.best_value,
    }
}

/// The exhaustive truth: minimum finite energy over the whole slice.
fn exhaustive_best(scan: &AnalyticScan, grid: &ParamGrid) -> f64 {
    let Ok(best) = scan.epsilon_constraint(grid, Metric::Energy, &[]);
    scan.metrics(best.expect("feasible grid")).u_eng_uj_per_bit
}

/// Runs the budgeted-exploration study.
pub fn run(scale: Scale) -> Report {
    let grid = slice();
    let n = grid.len() as u64;
    // The serve layer's analytic backend: periodic traffic at each
    // candidate's own operating point.
    let runner = EngineRunner::new(ChannelConfig::paper_hallway(), TrafficModel::Periodic);
    let scan = runner.analytic_scan(scale.packets());
    let best = exhaustive_best(&scan, &grid);

    let mut table = Table::new(vec![
        "budget",
        "grid",
        "evaluations",
        "evals_saved",
        "best_uj_bit",
        "found_uj_bit",
        "regret_pct",
    ]);
    let mut worst_quarter_regret = 0.0f64;
    for budget in [n / 4, n / 16] {
        let run = run_budget(&scan, &grid, budget);
        let regret = (run.found - best) / best;
        if budget == n / 4 {
            worst_quarter_regret = worst_quarter_regret.max(regret);
        }
        table.push_row(vec![
            format!("{}", run.budget),
            format!("{n}"),
            format!("{}", run.evaluations),
            format!("{}", n - run.evaluations),
            fnum(best),
            fnum(run.found),
            fnum(regret * 100.0),
        ]);
    }

    let mut report = Report::new(
        "ext14",
        "Extension: budgeted exploration vs. exhaustive analytic scan (35 m slice)",
    );
    report.push(
        "Energy-objective regret and evaluations saved per budget",
        table,
        vec![
            format!(
                "Exhaustive truth: {n} analytic evaluations; the minimum energy \
                 on the slice is {best:.4} µJ/bit."
            ),
            format!(
                "Quarter-grid regret: {:.2} % (shipped claim ≤ {:.0} %).",
                worst_quarter_regret * 100.0,
                QUARTER_BUDGET_REGRET * 100.0
            ),
            "The same search backs the serve layer's `explore` op, where the \
             budget also caps the worst-case latency a request can buy — see \
             docs/SERVE.md."
                .into(),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_budget_meets_the_shipped_regret_claim() {
        let grid = slice();
        let n = grid.len() as u64;
        let runner = EngineRunner::new(ChannelConfig::paper_hallway(), TrafficModel::Periodic);
        let scan = runner.analytic_scan(Scale::Bench.packets());
        let best = exhaustive_best(&scan, &grid);
        let run = run_budget(&scan, &grid, n / 4);
        assert!(run.evaluations <= n / 4, "{} > {}", run.evaluations, n / 4);
        let regret = (run.found - best) / best;
        assert!(
            regret <= QUARTER_BUDGET_REGRET,
            "regret {regret} exceeds the shipped claim"
        );
    }

    #[test]
    fn report_has_one_row_per_budget() {
        let report = run(Scale::Bench);
        assert_eq!(report.sections[0].table.rows.len(), 2);
    }
}
