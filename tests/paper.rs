//! The paper's §5 claims, as assertions on the reproduction's own
//! table functions (`simdize-bench`, the crate behind `repro`).
//!
//! EXPERIMENTS.md's "holds?" tables judge the full-size generated
//! tables; this file asserts the same qualitative verdicts at a reduced
//! size (50 loops per benchmark, trip 200) on every `cargo test`, so a
//! codegen or placement change that moves the paper's numbers fails
//! here before `repro --check-docs` reports the drift.

use simdize::{ScalarType, Scheme, TripSpec};
use simdize_bench::{
    figure_opd, figure_spec, render_figure, render_table, speedup_table, FigureRow, SpeedupRow,
    SEED, TABLE_SHAPES,
};

const TRIP: TripSpec = TripSpec::Known(200);

fn row<'a>(rows: &'a [FigureRow], label: &str) -> &'a FigureRow {
    rows.iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no {label} row"))
}

#[test]
fn figure_rows_have_expected_shape() {
    let spec = figure_spec().trip(TRIP);
    let off = figure_opd(&spec, false, SEED);
    let on = figure_opd(&spec, true, SEED);
    assert_eq!(
        off.len(),
        1 + Scheme::all().len() + Scheme::runtime_contenders().len()
    );

    // SEQ is the idealistic scalar count, 2l exactly; everything beats it.
    assert_eq!(off[0].label, "SEQ");
    assert!((off[0].total - 12.0).abs() < 1e-9);
    for r in &off[1..] {
        assert!(r.total < off[0].total, "{} did not beat SEQ", r.label);
        assert!(r.bound > 0.0);
    }

    for policy in ["ZERO", "EAGER", "LAZY", "DOM", "OPT"] {
        // PC and SP are equivalent on single-statement loops: identical
        // columns. Both beat the scheme without reuse.
        let (naive, pc, sp) = (
            row(&off, policy),
            row(&off, &format!("{policy}-pc")),
            row(&off, &format!("{policy}-sp")),
        );
        assert_eq!(
            (pc.bound, pc.reorg_overhead, pc.other_overhead, pc.total),
            (sp.bound, sp.reorg_overhead, sp.other_overhead, sp.total),
            "{policy}: PC and SP differ"
        );
        assert!(pc.total < naive.total, "{policy}: reuse did not pay");
    }

    // One analytic bound for every policy that may place shifts off the
    // loads, below zero-shift's; the runtime bound is above both.
    let bound = row(&off, "LAZY-pc").bound;
    for label in ["EAGER-pc", "DOM-pc", "OPT-pc"] {
        assert_eq!(row(&off, label).bound, bound);
    }
    assert!(bound < row(&off, "ZERO-pc").bound);
    assert!(row(&off, "ZERO-pc").bound < row(&off, "rt-ZERO-pc").bound);
    // Runtime alignment costs OPD against the same policy at compile time.
    assert!(row(&off, "rt-ZERO-pc").total > row(&off, "ZERO-pc").total);

    // Figure 11's middle bar: dominant introduces the fewest shifts
    // over the bound, then lazy, then eager (optimal at most dominant's).
    let reorg = |rows: &[FigureRow], label: &str| row(rows, label).reorg_overhead;
    assert!(reorg(&off, "DOM-pc") < reorg(&off, "LAZY-pc"));
    assert!(reorg(&off, "LAZY-pc") < reorg(&off, "EAGER-pc"));
    assert!(reorg(&off, "OPT-pc") <= reorg(&off, "DOM-pc"));
    // Dominant's naive variant pays for it in the top bar.
    assert!(row(&off, "DOM").other_overhead > row(&off, "LAZY").other_overhead);

    // Figure 12: reassociation drives lazy's shift overhead over the
    // bound to ~0 and improves the best schemes; zero and eager never
    // look at the expression shape, so their rows do not move.
    assert!(reorg(&on, "LAZY-pc") < 0.1 * reorg(&off, "LAZY-pc"));
    assert!(reorg(&on, "DOM-pc") < reorg(&off, "DOM-pc"));
    for label in ["LAZY-pc", "DOM-pc", "OPT-pc"] {
        assert!(row(&on, label).total < row(&off, label).total, "{label}");
    }
    for label in [
        "ZERO", "ZERO-pc", "ZERO-sp", "EAGER", "EAGER-pc", "EAGER-sp",
    ] {
        assert_eq!(row(&on, label), row(&off, label));
    }

    let text = render_figure("test", &off);
    assert!(text.contains("SEQ") && text.contains("ZERO-sp"));
}

#[test]
fn speedup_rows_have_expected_shape() {
    let table = |elem, peak: f64| -> Vec<SpeedupRow> {
        let rows = speedup_table(&TABLE_SHAPES, elem, TRIP, SEED);
        assert_eq!(rows.len(), TABLE_SHAPES.len());
        for r in &rows {
            // Simdization pays, stays under its lower-bound speedup and
            // under the peak; hiding the alignments costs speedup.
            assert!(r.static_speedup > 1.0, "{}: {}", r.name, r.static_speedup);
            assert!(r.static_speedup < r.static_bound, "{}", r.name);
            assert!(r.static_bound < peak, "{}", r.name);
            assert!(r.runtime_speedup < r.runtime_bound, "{}", r.name);
            assert!(r.runtime_speedup < r.static_speedup, "{}", r.name);
            assert!(r.runtime_bound < r.static_bound, "{}", r.name);
            // §4.4: without alignment information only zero-shift applies.
            assert!(r.best_runtime.starts_with("ZERO-"), "{}", r.best_runtime);
        }
        // Speedups grow with loop size, S1*L2 to S4*L8.
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        assert!(first.static_speedup < last.static_speedup);
        assert!(first.runtime_speedup < last.runtime_speedup);
        assert!(first.static_bound < last.static_bound);
        rows
    };
    // The two tables are the slow part of this file in debug builds.
    let (ints, shorts) = std::thread::scope(|s| {
        let shorts = s.spawn(|| table(ScalarType::I16, 8.0));
        (table(ScalarType::I32, 4.0), shorts.join().expect("Table 2"))
    });

    // Table 2 against Table 1: 8 lanes buy 1.6–1.9x the 4-lane speedup.
    for (i, s) in ints.iter().zip(&shorts) {
        let ratio = s.static_speedup / i.static_speedup;
        assert!((1.6..=1.9).contains(&ratio), "{}: {ratio}", i.name);
    }

    let text = render_table("test", &ints, 4);
    assert!(text.contains("S1*L2") && text.contains("S4*L8"));
}
