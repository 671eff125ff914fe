//! The bounded enumeration domain: prover options, compile
//! configurations, alignment vectors, trip counts and value probes.
//!
//! Everything the prover varies lives here, so the domain a proof
//! covers can be read off one module: compile configuration (policy ×
//! reuse × unroll × declared-vs-runtime alignment), per-stream byte
//! alignment, trip count (with both the runtime-`ub` and the
//! compile-time-known codegen forms), and initial memory contents.

use crate::mutate::MutationKind;
use simdize_codegen::ReuseMode;
use simdize_ir::{AlignKind, ArrayDecl, ArrayId, LoopProgram, TripCount, Value, VectorShape};
use simdize_reorg::Policy;
use simdize_vm::MemoryImage;

/// The fill perturbation [`MemoryImage::with_seed`] applies before
/// calling `fill_random`, duplicated here so runtime-alignment probes
/// fill identically to the seeded images the `simdize run --seed`
/// replay path builds. A unit test asserts the two stay in sync.
pub(crate) const FILL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed parameter values supplied to loops that declare `params`.
/// Structured like the value probes: small, signed, and unequal, so a
/// parameter routed to the wrong lane changes bytes.
pub(crate) const PARAM_PROBE: [i64; 4] = [3, -2, 7, 11];

/// Configuration for the bounded-equivalence prover.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Every trip count `1..=trip_bound` is proved (further capped by
    /// the loop's array lengths). The default 64 covers the
    /// prologue-only, steady-state and epilogue-only regimes for every
    /// element width.
    pub trip_bound: u64,
    /// Maximum number of harness executions before the prover stops
    /// and reports the proof as incomplete.
    pub budget: u64,
    /// Worker threads for the enumeration sweep.
    pub threads: usize,
    /// Shrink the domain to a smoke-sized sample: diagonal alignment
    /// vectors, boundary trip counts, seeded + lane-ramp probes only.
    pub quick: bool,
    /// The shift policies to prove (default: all four).
    pub policies: Vec<Policy>,
    /// Inject a known-bad mutation into every generated program before
    /// proving — the prover must then *fail*. Used by the
    /// mutate-and-catch meta-test and `simdize verify --mutate`.
    pub mutation: Option<MutationKind>,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            trip_bound: 64,
            budget: 4_000_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            quick: false,
            policies: Policy::ALL.to_vec(),
            mutation: None,
        }
    }
}

impl VerifyOptions {
    /// The full-domain defaults.
    pub fn new() -> VerifyOptions {
        VerifyOptions::default()
    }

    /// The smoke-sized preset behind `--quick`: sampled alignments,
    /// boundary trips, two probes, a small budget.
    pub fn quick() -> VerifyOptions {
        VerifyOptions {
            trip_bound: 16,
            budget: 200_000,
            quick: true,
            ..VerifyOptions::default()
        }
    }
}

/// How enumerated alignments reach the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Alignments are declared `Known` in the rebuilt loop, so every
    /// policy may exploit them (compile-time shift amounts, eqs 12/14).
    Declared,
    /// Alignments are declared `Runtime`; the compiler sees nothing and
    /// must emit `addr & (V-1)` expressions (§3.3, zero policy only).
    /// The memory image still places each array at the enumerated
    /// offset.
    Runtime,
}

impl Mode {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Declared => "declared",
            Mode::Runtime => "runtime",
        }
    }
}

/// Whether the trip count was compiled as a runtime `ub` or baked into
/// the loop as a compile-time constant — the two take different bound
/// formulas (eqs 13/15 vs 12/14), so the prover exercises both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripStyle {
    /// `for i in 0..ub`, trip supplied at run time.
    RuntimeUb,
    /// `for i in 0..N`, trip baked at compile time.
    KnownTrip,
}

impl TripStyle {
    /// Kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TripStyle::RuntimeUb => "runtime-ub",
            TripStyle::KnownTrip => "known-trip",
        }
    }
}

/// One compile configuration of the enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Shift-placement policy.
    pub policy: Policy,
    /// Reuse scheme.
    pub reuse: ReuseMode,
    /// Whether the copy-removing unroll-by-2 runs.
    pub unroll: bool,
    /// Declared or runtime alignments.
    pub mode: Mode,
}

impl Config {
    /// `policy=zero reuse=sp unroll=on mode=declared` — used in
    /// counterexamples and inconsistency reports.
    pub fn describe(&self) -> String {
        format!(
            "policy={} reuse={} unroll={} mode={}",
            self.policy.name(),
            reuse_name(self.reuse),
            if self.unroll { "on" } else { "off" },
            self.mode.name()
        )
    }
}

/// The reuse mode's CLI suffix name.
pub(crate) fn reuse_name(reuse: ReuseMode) -> &'static str {
    match reuse {
        ReuseMode::None => "none",
        ReuseMode::SoftwarePipeline => "sp",
        ReuseMode::PredictiveCommoning => "pc",
    }
}

/// Every compile configuration the options select. Runtime-alignment
/// mode only pairs with the zero policy (§4.4 — the others need
/// compile-time alignments and are counted as skipped, not silently
/// dropped, when enumerated in declared mode fails).
pub(crate) fn configs(opts: &VerifyOptions) -> Vec<Config> {
    let combos: &[(ReuseMode, bool)] = if opts.quick {
        &[(ReuseMode::SoftwarePipeline, true)]
    } else {
        &[
            (ReuseMode::None, true),
            (ReuseMode::None, false),
            (ReuseMode::SoftwarePipeline, true),
            (ReuseMode::SoftwarePipeline, false),
            (ReuseMode::PredictiveCommoning, true),
            (ReuseMode::PredictiveCommoning, false),
        ]
    };
    let mut out = Vec::new();
    for &policy in &opts.policies {
        for &(reuse, unroll) in combos {
            out.push(Config {
                policy,
                reuse,
                unroll,
                mode: Mode::Declared,
            });
        }
    }
    if opts.policies.contains(&Policy::Zero) {
        for &(reuse, unroll) in combos {
            out.push(Config {
                policy: Policy::Zero,
                reuse,
                unroll,
                mode: Mode::Runtime,
            });
        }
    }
    out
}

/// The byte offsets a stream of element width `d` can realize while
/// staying naturally aligned: the multiples of `d` below `V`. All 16
/// candidate offsets are realizable exactly when `d == 1`.
pub(crate) fn realizable_offsets(shape: VectorShape, d: u32) -> Vec<u32> {
    (0..shape.bytes()).filter(|o| o % d == 0).collect()
}

/// Alignment vectors to cross over the loop's streams. Full mode takes
/// the complete cartesian product (capped at 4096 vectors — beyond
/// that, diagonals plus every single-stream perturbation); quick mode
/// takes the diagonals plus one staggered vector.
///
/// Returns the vectors and whether the product was capped.
pub(crate) fn alignment_vectors(
    narrays: usize,
    cands: &[u32],
    quick: bool,
) -> (Vec<Vec<u32>>, bool) {
    if narrays == 0 || cands.is_empty() {
        return (vec![Vec::new()], false);
    }
    if quick {
        let mut out: Vec<Vec<u32>> = cands.iter().map(|&c| vec![c; narrays]).collect();
        let staggered: Vec<u32> = (0..narrays).map(|i| cands[i % cands.len()]).collect();
        if !out.contains(&staggered) {
            out.push(staggered);
        }
        return (out, true);
    }
    let total = cands
        .len()
        .checked_pow(narrays as u32)
        .unwrap_or(usize::MAX);
    if total <= 4096 {
        let mut out = Vec::with_capacity(total);
        for mut c in 0..total {
            let mut v = Vec::with_capacity(narrays);
            for _ in 0..narrays {
                v.push(cands[c % cands.len()]);
                c /= cands.len();
            }
            out.push(v);
        }
        return (out, false);
    }
    // Too many streams for the full cross: diagonals + every
    // single-stream perturbation off the zero vector.
    let mut out: Vec<Vec<u32>> = cands.iter().map(|&c| vec![c; narrays]).collect();
    for s in 0..narrays {
        for &c in cands {
            let mut v = vec![0u32; narrays];
            v[s] = c;
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    (out, true)
}

/// The largest trip count every reference of the loop stays in bounds
/// for, so the enumeration never asks the scalar oracle to fault.
pub(crate) fn trip_cap(base: &LoopProgram) -> u64 {
    let mut cap = u64::MAX;
    for r in base.all_refs() {
        let len = base.array(r.array).len() as i64;
        let stride = (r.stride as i64).max(1);
        if r.offset >= len {
            return 0;
        }
        if r.offset >= 0 {
            cap = cap.min(((len - 1 - r.offset) / stride + 1).max(0) as u64);
        }
    }
    cap
}

/// The trip counts to prove, already capped by [`trip_cap`]. Full mode
/// is exhaustive up to the bound; quick mode keeps the regime
/// boundaries (prologue-only, first steady iteration, `ub > 3B` guard
/// edge, unroll parity) plus the bound itself.
pub(crate) fn trips(base: &LoopProgram, bound: u64, block: u64, quick: bool) -> Vec<u64> {
    let cap = trip_cap(base).min(bound);
    if cap == 0 {
        return Vec::new();
    }
    if !quick {
        return (1..=cap).collect();
    }
    let b = block;
    let mut out: Vec<u64> = (1..=(b + 2).min(cap)).collect();
    for t in [
        2 * b,
        3 * b - 1,
        3 * b,
        3 * b + 1,
        3 * b + 2,
        4 * b,
        4 * b + 1,
        cap,
    ] {
        if t >= 1 && t <= cap {
            out.push(t);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The subset of trips also compiled with a *known* trip count (the
/// compile-time bound formulas, eqs 12/14). Small, since each needs its
/// own compilation.
pub(crate) fn known_trips(base: &LoopProgram, bound: u64, block: u64, quick: bool) -> Vec<u64> {
    let cap = trip_cap(base).min(bound);
    let b = block;
    let all: &[u64] = if quick {
        &[1, b, 3 * b + 2]
    } else {
        &[1, b - 1, b, b + 1, 2 * b + 1, 3 * b, 3 * b + 2, bound]
    };
    let mut out: Vec<u64> = all
        .iter()
        .copied()
        .filter(|&t| t >= 1 && t <= cap)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The fixed parameter vector for the loop's declared params.
pub(crate) fn params_for(base: &LoopProgram) -> Vec<i64> {
    (0..base.params().len())
        .map(|i| PARAM_PROBE[i % PARAM_PROBE.len()])
        .collect()
}

/// Rebuilds the loop with the enumerated alignments (declared `Known`
/// or erased to `Runtime` per `mode`) and the given trip count.
pub(crate) fn rebuild(
    base: &LoopProgram,
    aligns: &[u32],
    mode: Mode,
    trip: TripCount,
) -> LoopProgram {
    let arrays: Vec<ArrayDecl> = base
        .arrays()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let align = match mode {
                Mode::Declared => AlignKind::Known(aligns[i]),
                Mode::Runtime => AlignKind::Runtime,
            };
            ArrayDecl::new(a.name(), a.elem(), a.len(), align)
        })
        .collect();
    LoopProgram::new(
        base.elem(),
        arrays,
        base.params().to_vec(),
        trip,
        base.stmts().to_vec(),
    )
    .expect("rebuilt loop re-validates: only alignments and trip changed")
}

/// A structured initial-memory pattern, chosen so any byte permutation
/// or clobber in the generated code changes at least one output byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Pseudo-random contents, filled exactly like
    /// [`MemoryImage::with_seed`] so `simdize run --seed` replays it.
    Seeded(u64),
    /// Every element holds a value derived from its lane index and its
    /// array — any lane swap, off-by-one shift or cross-stream mixup is
    /// visible in the bytes.
    LaneRamp,
    /// All zeros except one hot element per array — isolates exactly
    /// which source element each output byte came from.
    SingleHot(u64),
    /// Alternating minimum/maximum element values — catches sign
    /// extension and truncation mistakes at the type boundaries.
    Sentinel,
}

impl Probe {
    /// Kebab-case label for reports (`seeded:7`, `lane-ramp`, ...).
    pub fn label(&self) -> String {
        match self {
            Probe::Seeded(s) => format!("seeded:{s}"),
            Probe::LaneRamp => "lane-ramp".to_string(),
            Probe::SingleHot(k) => format!("single-hot:{k}"),
            Probe::Sentinel => "sentinel".to_string(),
        }
    }

    /// Builds the memory image for `src` with every array placed at its
    /// enumerated byte offset and contents filled per the probe.
    pub(crate) fn build_image(
        &self,
        src: &LoopProgram,
        shape: VectorShape,
        aligns: &[u32],
    ) -> MemoryImage {
        let mut img = MemoryImage::with_offsets(src, shape, aligns);
        let elem = src.elem();
        match *self {
            Probe::Seeded(s) => img.fill_random(s ^ FILL_SALT),
            Probe::LaneRamp => {
                for (ai, a) in src.arrays().iter().enumerate() {
                    for idx in 0..a.len() {
                        let v = (idx as i64 + 1).wrapping_add(ai as i64 * 71);
                        img.set(ArrayId::from_index(ai), idx, Value::from_i64(elem, v))
                            .expect("ramp fill stays in bounds");
                    }
                }
            }
            Probe::SingleHot(k) => {
                for (ai, a) in src.arrays().iter().enumerate() {
                    let hot = (k + ai as u64) % a.len().max(1);
                    img.set(ArrayId::from_index(ai), hot, Value::from_i64(elem, 0x5D))
                        .expect("hot fill stays in bounds");
                }
            }
            Probe::Sentinel => {
                let bits = elem.bits();
                let (lo, hi) = if elem.is_signed() {
                    (
                        (-(1i128 << (bits - 1))) as i64,
                        ((1i128 << (bits - 1)) - 1) as i64,
                    )
                } else {
                    let max = if bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                    (0i64, max as i64)
                };
                for (ai, a) in src.arrays().iter().enumerate() {
                    for idx in 0..a.len() {
                        let v = if (idx + ai as u64).is_multiple_of(2) {
                            hi
                        } else {
                            lo
                        };
                        img.set(ArrayId::from_index(ai), idx, Value::from_i64(elem, v))
                            .expect("sentinel fill stays in bounds");
                    }
                }
            }
        }
        img
    }
}

/// The probes run at one `(config, aligns, trip)` point. Seeded and
/// lane-ramp run everywhere; the boundary probes join on trip counts
/// near a regime edge, where splice windows are widest.
pub(crate) fn probes(trip: u64, block: u64, bound: u64, quick: bool, salt: u64) -> Vec<Probe> {
    let mut out = vec![Probe::Seeded(salt), Probe::LaneRamp];
    if quick {
        return out;
    }
    let b = block;
    let boundary = trip <= 3 * b + 2 || trip + 2 >= bound || trip % b <= 1;
    if boundary {
        out.push(Probe::SingleHot(trip));
        out.push(Probe::Sentinel);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::parse_program;

    const SRC: &str = "arrays { a: i32[64] @ 0; b: i32[64] @ 4; c: i32[64] @ 8; }
                       for i in 0..40 { a[i+1] = b[i] + c[i+2]; }";

    #[test]
    fn seeded_probe_matches_with_seed_images() {
        // The prover promises its `seeded:<s>` probe equals the image
        // `simdize run --seed <s>` builds for an all-known loop; this
        // pins the FILL_SALT duplicate against MemoryImage::with_seed.
        let p = parse_program(SRC).unwrap();
        let shape = VectorShape::V16;
        let probe = Probe::Seeded(42).build_image(&p, shape, &[0, 4, 8]);
        let reference = MemoryImage::with_seed(&p, shape, 42);
        assert_eq!(probe.first_difference(&reference), None);
    }

    #[test]
    fn realizable_offsets_scale_with_width() {
        assert_eq!(realizable_offsets(VectorShape::V16, 4), vec![0, 4, 8, 12]);
        assert_eq!(realizable_offsets(VectorShape::V16, 1).len(), 16);
    }

    #[test]
    fn alignment_vectors_cross_and_cap() {
        let cands = [0u32, 4, 8, 12];
        let (full, capped) = alignment_vectors(3, &cands, false);
        assert_eq!(full.len(), 64);
        assert!(!capped);
        let (quick, capped) = alignment_vectors(3, &cands, true);
        assert!(quick.len() <= cands.len() + 1);
        assert!(capped);
        let (wide, capped) = alignment_vectors(8, &cands, false);
        assert!(capped);
        assert!(wide.len() < 4096);
    }

    #[test]
    fn trip_cap_respects_array_bounds() {
        let p = parse_program(SRC).unwrap();
        // c[i+2] is the tightest reference: i+2 <= 63 → 62 trips.
        assert_eq!(trip_cap(&p), 62);
        assert_eq!(trips(&p, 64, 4, false).len(), 62);
        let quick = trips(&p, 64, 4, true);
        assert!(quick.contains(&1) && quick.contains(&13) && quick.contains(&62));
    }

    #[test]
    fn rebuild_overrides_alignment_and_trip() {
        let p = parse_program(SRC).unwrap();
        let r = rebuild(&p, &[4, 8, 12], Mode::Declared, TripCount::Runtime);
        assert_eq!(r.arrays()[0].align(), AlignKind::Known(4));
        assert_eq!(r.trip(), TripCount::Runtime);
        let rt = rebuild(&p, &[4, 8, 12], Mode::Runtime, TripCount::Known(7));
        assert_eq!(rt.arrays()[2].align(), AlignKind::Runtime);
        assert_eq!(rt.trip(), TripCount::Known(7));
    }

    #[test]
    fn configs_pair_runtime_mode_with_zero_only() {
        let opts = VerifyOptions::default();
        let cfgs = configs(&opts);
        assert!(cfgs
            .iter()
            .all(|c| c.mode == Mode::Declared || c.policy == Policy::Zero));
        assert_eq!(cfgs.len(), 5 * 6 + 6);
    }
}
