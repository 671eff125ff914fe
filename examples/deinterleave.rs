//! Non-unit-stride simdization (§7 future work, implemented): channel
//! de-interleaving and interleaving. A strided load is a *pack* (its
//! window's chunks gathered into lane order by `vperm`) and a strided
//! store a *scatter* (load–merge–store per chunk), both at stream offset
//! 0 in the reorganization graph, so the pipeline's policies, reuse and
//! bound apply to them as to any stream.
//!
//! Run with: `cargo run --example deinterleave`

use simdize::{Expr, LoopBuilder, ScalarType, Simdizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Split interleaved stereo samples (L R L R …) into channels while
    // scaling the left channel — loads at stride 2, stores at stride 1.
    let mut b = LoopBuilder::new(ScalarType::I16);
    let left = b.array("left", 1024, 0);
    let right = b.array("right", 1024, 6);
    let stereo = b.array("stereo", 2100, 2);
    let gain = b.param("gain");
    b.stmt(left.at(0), stereo.load_strided(2, 0) * Expr::param(gain));
    b.stmt(right.at(0), stereo.load_strided(2, 1));
    let split = b.finish(1000)?;

    println!("== de-interleave (stride-2 loads) ==\n{split}");
    let compiled = Simdizer::new().compile(&split)?;
    println!("{compiled}");
    let report = Simdizer::new()
        .evaluate_with(&split, &simdize::DiffConfig::with_seed(7).params(vec![3]))?;
    assert!(report.verified);
    println!(
        "verified; opd {:.3} (bound {:.3}), speedup {:.2}x vs scalar\n",
        report.opd, report.lower_bound_opd, report.speedup
    );

    // The opposite direction: interleave two planar channels into RGBA-
    // style packed data — strided *stores* merging into existing bytes.
    let mut b = LoopBuilder::new(ScalarType::U8);
    let r = b.array("r", 1024, 0);
    let g = b.array("g", 1024, 5);
    let packed_r = b.array("packed_r", 4200, 0);
    let packed_g = b.array("packed_g", 4200, 0);
    b.stmt(packed_r.at_strided(4, 0), r.load(0));
    b.stmt(packed_g.at_strided(4, 1), g.load(0));
    let interleave = b.finish(1000)?;

    println!("== interleave (stride-4 stores) ==\n{interleave}");
    let report = Simdizer::new().evaluate(&interleave, 8)?;
    assert!(report.verified);
    println!(
        "verified; opd {:.3}, speedup {:.2}x vs scalar",
        report.opd, report.speedup
    );
    println!("\n(Strided scatters load-merge-store every covered chunk, so they");
    println!("cost ~3 operations per chunk; the win over scalar code comes from");
    println!("packing {} lanes per permute.)", 16 / split.elem().size());
    Ok(())
}
