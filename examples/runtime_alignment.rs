//! Runtime alignments and unknown loop bounds (paper §4.4).
//!
//! When array alignments are unknown until run time, only the
//! zero-shift policy applies (its shift directions are decidable at
//! compile time); when the trip count is unknown, the steady-state
//! bound becomes `ub − B + 1` and the simdized path is guarded by
//! `ub > 3B`, falling back to the scalar loop for tiny trips.
//!
//! Run with: `cargo run --example runtime_alignment`

use simdize::{
    generate, parse_program, run_differential, CodegenOptions, DiffConfig, Policy, ReorgGraph,
    ReuseMode, VectorShape,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(
        "arrays { a: i32[4096] @ ?; b: i32[4096] @ ?; c: i32[4096] @ ?; }
         for i in 0..ub { a[i+3] = b[i+1] + c[i+2]; }",
    )?;
    println!("== the loop: nothing known at compile time ==\n{program}");

    let graph = ReorgGraph::build(&program, VectorShape::V16)?;

    // Eager/lazy/dominant/optimal refuse: they need compile-time alignments.
    for policy in [
        Policy::Eager,
        Policy::Lazy,
        Policy::Dominant,
        Policy::Optimal,
    ] {
        let err = graph.with_policy(policy).unwrap_err();
        println!("{policy:>9}: {err}");
    }

    let zero = graph.with_policy(Policy::Zero)?;
    println!(
        "     zero: ok, {} stream shifts (every stream pays)\n",
        zero.shift_count()
    );

    let compiled = generate(
        &zero,
        &CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline),
    )?;
    println!(
        "upper bound expression: i < {}  (eq. 15: ub - B + 1)",
        compiled.upper_bound()
    );
    println!(
        "guard: simdized path runs only when ub > {}\n",
        compiled.guard_min_trip()
    );
    println!("{compiled}");

    // Sweep trip counts across the guard boundary and across residues
    // mod B; every single run is verified against the scalar oracle.
    println!("ub     path      opd     speedup   verified");
    println!("--------------------------------------------");
    for ub in [1, 5, 12, 13, 100, 997, 1000, 1003] {
        let outcome = run_differential(&compiled, &DiffConfig::with_seed(11).runtime_ub(ub))?;
        println!(
            "{ub:<6} {:<9} {:>6.3}  {:>6.2}x    {}",
            if outcome.stats.used_fallback {
                "scalar"
            } else {
                "simdized"
            },
            outcome.opd(),
            outcome.speedup(),
            outcome.verified
        );
    }

    // Different runtime placements of the same arrays — the same
    // compiled code handles all of them.
    println!("\nsame binary, eight random runtime alignments:");
    for seed in 0..8 {
        let outcome = run_differential(&compiled, &DiffConfig::with_seed(seed).runtime_ub(1000))?;
        assert!(outcome.verified);
        print!("  seed {seed}: {:.2}x", outcome.speedup());
    }
    println!("\nall verified.");
    Ok(())
}
