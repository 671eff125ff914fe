//! The abstract interpreter and the lints built on it.
//!
//! One analysis run evaluates the program under a family of concrete
//! *scenarios* (alignment assignments for runtime-aligned arrays ×
//! sample trip counts), because shift amounts, splice points and
//! epilogue guards are loop-invariant scalar expressions that only
//! become concrete given alignments and `ub`. Within one scenario the
//! steady state is still analyzed *symbolically in `i`*: the body's
//! abstract state is iterated to a fixpoint under the `i → i + B`
//! rebase, so one converged state stands for every steady iteration.

use crate::domain::{AbsState, Lane, ProvSet};
use crate::lint::{AnalysisReport, Finding, Level, Lint, Section};
use simdize_codegen::{Addr, ReuseMode, ScalarEnv, SimdProgram, VInst, VReg};
use simdize_ir::{AlignKind, ArrayId, TripCount, VectorShape};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Configuration for [`analyze_program`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    overrides: Vec<(Lint, Level)>,
    reuse_hint: Option<ReuseMode>,
    memnorm_hint: bool,
}

/// The most mixed runtime-alignment combinations one analysis
/// evaluates, beyond the diagonals.
const MAX_ALIGN_COMBOS: usize = 12;

impl AnalyzeOptions {
    /// Starts from the defaults (no hints, default lint levels).
    pub fn new() -> AnalyzeOptions {
        AnalyzeOptions::default()
    }

    /// Overrides the reporting level of one lint (`--lint name=level`).
    pub fn level(mut self, lint: Lint, level: Level) -> AnalyzeOptions {
        self.overrides.push((lint, level));
        self
    }

    /// Tells the analyzer which reuse scheme generated the program.
    /// The `chunk-loaded-twice` lint only applies to reuse-enabled code
    /// (§5's exactly-once guarantee); without a hint it stays silent.
    pub fn reuse(mut self, reuse: ReuseMode) -> AnalyzeOptions {
        self.reuse_hint = Some(reuse);
        self
    }

    /// Tells the analyzer whether memory normalization ran, enabling
    /// the stricter duplicate-chunk detection (MemNorm guarantees
    /// chunk-identical loads were merged).
    pub fn memnorm(mut self, on: bool) -> AnalyzeOptions {
        self.memnorm_hint = on;
        self
    }

    /// The effective level of `lint` after overrides.
    pub fn level_for(&self, lint: Lint) -> Level {
        self.overrides
            .iter()
            .rev()
            .find(|(l, _)| *l == lint)
            .map(|(_, lvl)| *lvl)
            .unwrap_or_else(|| lint.default_level())
    }
}

/// Runs the full static analysis over a generated program and returns
/// every finding.
///
/// The analysis is sound with respect to the scenarios it evaluates:
/// a lane it cannot track precisely widens to ⊤ and is exempted from
/// checks, so every reported `store-byte-mismatch`/`splice-clobber` is
/// a real provenance violation under some evaluated alignment/trip
/// assignment.
pub fn analyze_program(program: &SimdProgram, options: &AnalyzeOptions) -> AnalysisReport {
    let mut analyzer = Analyzer::new(program, options);
    analyzer.scan_redundant_shifts();
    analyzer.scan_chunk_loads();
    for env in analyzer.scenarios() {
        analyzer.run_scenario(&env);
    }
    analyzer.finalize_dead_loads();
    analyzer.report()
}

/// Per-source-statement facts the store check needs.
struct StmtInfo {
    reduction: bool,
    /// δ₀: the store's constant element offset.
    target_offset: i64,
    /// `(array, σ, δ)` for every load reference of the statement.
    loads: Vec<(u32, i64, i64)>,
}

/// One concrete evaluation scenario: alignments and trip count.
struct ScenEnv {
    ub: i64,
    betas: Vec<i64>,
    bases: Vec<u64>,
    shape: VectorShape,
}

impl ScalarEnv for ScenEnv {
    fn ub(&self) -> i64 {
        self.ub
    }

    fn base_of(&self, array: ArrayId) -> u64 {
        self.bases[array.index()]
    }

    fn shape(&self) -> VectorShape {
        self.shape
    }
}

/// A load site (one `vload` instruction, identified structurally).
struct SiteInfo {
    section: Section,
    path: Vec<usize>,
    reg: VReg,
    array: usize,
}

/// How a store byte relates to the statement's target region.
#[derive(Clone, Copy, PartialEq)]
enum ByteClass {
    /// Must hold the source-stream bytes of its element (C.2/C.3).
    New,
    /// Must preserve the original memory byte exactly.
    Old,
    /// May hold either (covered by an adjacent steady iteration or a
    /// strided gather gap merged from the old chunk).
    Lenient,
}

struct Analyzer<'a> {
    prog: &'a SimdProgram,
    opts: &'a AnalyzeOptions,
    v: i64,
    d: i64,
    b: i64,
    nvregs: usize,
    /// Uniform per-array stride σ from the source refs (`None` when the
    /// array is referenced with mixed strides — its entries widen).
    sigma: Vec<Option<i64>>,
    /// Source statement storing each array, if any.
    store_stmt: Vec<Option<usize>>,
    stmts: Vec<StmtInfo>,
    /// Total source load references per array, each weighted by its
    /// stride (the §5 exactly-once budget for steady-state `vload`s).
    /// A scatter's target has none: its loads are merges, outside the
    /// budget.
    load_ref_count: Vec<usize>,
    scatter_target: Vec<bool>,
    findings: BTreeMap<(Lint, Section, Vec<usize>, u32), Finding>,
    sites: Vec<SiteInfo>,
    site_ids: HashMap<(Section, Vec<usize>), u32>,
    live: BTreeSet<u32>,
    /// Instructions (by section and guard-nested path) the interpreter
    /// evaluated in at least one scenario — the coverage numerator.
    reached: BTreeSet<(Section, Vec<usize>)>,
}

impl<'a> Analyzer<'a> {
    fn new(prog: &'a SimdProgram, opts: &'a AnalyzeOptions) -> Analyzer<'a> {
        let source = prog.source();
        let n = source.arrays().len();
        let mut stride_of: Vec<Option<i64>> = vec![None; n];
        let mut conflict = vec![false; n];
        for r in source.all_refs() {
            let idx = r.array.index();
            let s = r.stride as i64;
            match stride_of[idx] {
                None => stride_of[idx] = Some(s),
                Some(prev) if prev != s => conflict[idx] = true,
                Some(_) => {}
            }
        }
        let sigma: Vec<Option<i64>> = stride_of
            .iter()
            .zip(&conflict)
            .map(|(s, c)| if *c { None } else { *s })
            .collect();

        let mut store_stmt = vec![None; n];
        let mut load_ref_count = vec![0usize; n];
        let mut scatter_target = vec![false; n];
        let mut stmts = Vec::new();
        for (si, stmt) in source.stmts().iter().enumerate() {
            store_stmt[stmt.target.array.index()] = Some(si);
            scatter_target[stmt.target.array.index()] = !stmt.target.is_unit_stride();
            let loads: Vec<(u32, i64, i64)> = stmt
                .rhs
                .loads()
                .iter()
                .map(|r| (r.array.index() as u32, r.stride as i64, r.offset))
                .collect();
            // A stride-`s` stream advances `s` chunks an iteration.
            for &(a, stride, _) in &loads {
                load_ref_count[a as usize] += stride as usize;
            }
            stmts.push(StmtInfo {
                reduction: stmt.reduction.is_some(),
                target_offset: stmt.target.offset,
                loads,
            });
        }

        Analyzer {
            prog,
            opts,
            v: prog.shape().bytes() as i64,
            d: prog.elem().size() as i64,
            b: prog.block() as i64,
            nvregs: prog.vreg_count() as usize,
            sigma,
            store_stmt,
            stmts,
            load_ref_count,
            scatter_target,
            findings: BTreeMap::new(),
            sites: Vec::new(),
            site_ids: HashMap::new(),
            live: BTreeSet::new(),
            reached: BTreeSet::new(),
        }
    }

    fn array_name(&self, idx: usize) -> String {
        self.prog
            .source()
            .arrays()
            .get(idx)
            .map(|a| a.name().to_string())
            .unwrap_or_else(|| format!("arr{idx}"))
    }

    fn render_addr(&self, addr: Addr) -> String {
        let name = self.array_name(addr.array.index());
        match addr.scale {
            0 => format!("{name}[{}]", addr.elem),
            1 if addr.elem == 0 => format!("{name}[i]"),
            1 if addr.elem > 0 => format!("{name}[i+{}]", addr.elem),
            1 => format!("{name}[i{}]", addr.elem),
            s => format!("{name}[{s}*i+{}]", addr.elem),
        }
    }

    fn render_lane(&self, lane: Lane) -> String {
        match lane {
            Lane::Undef => "undefined data".to_string(),
            Lane::Top => "untracked data".to_string(),
            Lane::Known(s) if s.is_empty() => "loop-invariant (splat) data".to_string(),
            Lane::Known(s) => self.render_set(&s),
        }
    }

    fn render_set(&self, s: &ProvSet) -> String {
        let parts: Vec<String> = s
            .iter()
            .map(|(a, r)| format!("{}[{r:+}B]", self.array_name(a as usize)))
            .collect();
        parts.join("|")
    }

    fn emit(
        &mut self,
        lint: Lint,
        sec: Section,
        path: &[usize],
        register: Option<VReg>,
        extra: u32,
        message: String,
    ) {
        let level = self.opts.level_for(lint);
        if level == Level::Allow {
            return;
        }
        let index = path.first().copied().unwrap_or(0);
        self.findings
            .entry((lint, sec, path.to_vec(), extra))
            .or_insert(Finding {
                lint,
                level,
                section: sec,
                index,
                register,
                message,
            });
    }

    fn report(self) -> AnalysisReport {
        let prog = self.prog;
        let insts_total = count_insts(prog.prologue())
            + count_insts(prog.body())
            + prog.body_pair().map_or(0, count_insts)
            + count_insts(prog.epilogue());
        let insts_reached = self.reached.len().min(insts_total);
        let mut findings: Vec<Finding> = self.findings.into_values().collect();
        findings.sort_by(|a, b| {
            (a.section, a.index, a.lint)
                .cmp(&(b.section, b.index, b.lint))
                .then_with(|| a.message.cmp(&b.message))
        });
        AnalysisReport::new(findings, insts_total, insts_reached)
    }

    // ---- scenario construction -------------------------------------

    fn scenarios(&self) -> Vec<ScenEnv> {
        let source = self.prog.source();
        let arrays = source.arrays();
        let shape = self.prog.shape();
        let (v, d, b) = (self.v, self.d, self.b);

        let runtime: Vec<usize> = arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.align() == AlignKind::Runtime)
            .map(|(i, _)| i)
            .collect();
        let choices = (v / d).max(1) as usize;

        // Alignment combinations for the runtime arrays: all diagonals
        // (every array at the same offset) plus mixed counter-based
        // combinations up to the cap.
        let mut combos: BTreeSet<Vec<i64>> = BTreeSet::new();
        if runtime.is_empty() {
            combos.insert(Vec::new());
        } else {
            for m in 0..choices {
                combos.insert(vec![m as i64 * d; runtime.len()]);
            }
            let total = choices
                .checked_pow(runtime.len() as u32)
                .unwrap_or(usize::MAX);
            for c in 0..total.min(MAX_ALIGN_COMBOS) {
                let mut digits = Vec::with_capacity(runtime.len());
                let mut rest = c;
                for _ in 0..runtime.len() {
                    digits.push((rest % choices) as i64 * d);
                    rest /= choices;
                }
                combos.insert(digits);
            }
        }

        let ubs: Vec<i64> = match source.trip() {
            TripCount::Known(n) => vec![n as i64],
            TripCount::Runtime => {
                let g = self.prog.guard_min_trip() as i64;
                let mut u = vec![g + 1, g + 2, g + b - 1, g + b, g + 2 * b + 3];
                u.retain(|&x| x > g);
                u.sort_unstable();
                u.dedup();
                u
            }
        };

        let mut envs = Vec::new();
        for combo in &combos {
            let betas: Vec<i64> = arrays
                .iter()
                .enumerate()
                .map(|(i, a)| match a.align().known_offset(shape) {
                    Some(off) => off as i64,
                    None => {
                        let pos = runtime.iter().position(|&r| r == i).unwrap();
                        combo[pos]
                    }
                })
                .collect();
            // Fabricated bases realizing each beta: far apart, at a
            // multiple of the largest supported V plus the offset.
            let bases: Vec<u64> = betas
                .iter()
                .enumerate()
                .map(|(i, &beta)| 0x10_0000 + i as u64 * 0x1_0000 + beta as u64)
                .collect();
            for &ub in &ubs {
                envs.push(ScenEnv {
                    ub,
                    betas: betas.clone(),
                    bases: bases.clone(),
                    shape,
                });
            }
        }
        envs
    }

    // ---- one scenario ----------------------------------------------

    fn run_scenario(&mut self, env: &ScenEnv) {
        let prog = self.prog;
        if env.ub <= prog.guard_min_trip() as i64 {
            return; // the guard routes this trip count to the scalar loop
        }
        let mut path = Vec::new();
        let mut state = AbsState::new(self.nvregs, self.v as usize);
        self.eval_insts(
            &mut state,
            prog.prologue(),
            Section::Prologue,
            env,
            true,
            Some(0),
            &mut path,
        );

        let lb = prog.lower_bound() as i64;
        state.rebase(lb, &self.sigma, self.d);

        // Simulate the exact iteration schedule to learn the epilogue's
        // induction value and whether any steady iteration runs.
        let upper = prog.upper_bound().eval(env);
        let b = self.b;
        let mut i = lb;
        let mut steady = 0u64;
        if prog.body_pair().is_some() {
            while i + b < upper {
                i += 2 * b;
                steady += 1;
            }
        }
        while i < upper {
            i += b;
            steady += 1;
        }
        let i_epi = i;

        let converged = self.fixpoint(&state, prog.body(), b, Section::Body, env);
        let mut check_state = converged.clone();
        self.eval_insts(
            &mut check_state,
            prog.body(),
            Section::Body,
            env,
            true,
            None,
            &mut path,
        );

        if let Some(pair) = prog.body_pair() {
            let conv_pair = self.fixpoint(&state, pair, 2 * b, Section::BodyPair, env);
            let mut pair_state = conv_pair;
            self.eval_insts(
                &mut pair_state,
                pair,
                Section::BodyPair,
                env,
                true,
                None,
                &mut path,
            );
            // Values the pair computes can first reach memory in the
            // epilogue (reduction accumulators are stored only there):
            // replay the epilogue from the pair's state with checks off
            // so those load sites register as live and don't report as
            // dead. The checked epilogue pass below runs from the
            // body's converged state, which covers the same stores.
            pair_state.rebase(2 * b, &self.sigma, self.d);
            self.eval_insts(
                &mut pair_state,
                prog.epilogue(),
                Section::Epilogue,
                env,
                false,
                Some(i_epi),
                &mut path,
            );
        }

        // With zero steady iterations the epilogue sees the prologue's
        // values directly (possible only when guard_min_trip is 0).
        let mut epi_state = if steady > 0 { converged } else { state };
        self.eval_insts(
            &mut epi_state,
            prog.epilogue(),
            Section::Epilogue,
            env,
            true,
            Some(i_epi),
            &mut path,
        );
    }

    /// Iterates `state → rebase(eval(state))` until stable. Lanes that
    /// fail to stabilize quickly widen to ⊤ (and are then exempt from
    /// checks), so the converged state soundly covers every steady
    /// iteration.
    fn fixpoint(
        &mut self,
        start: &AbsState,
        insts: &[VInst],
        step: i64,
        sec: Section,
        env: &ScenEnv,
    ) -> AbsState {
        let mut current = start.clone();
        let mut path = Vec::new();
        for iter in 0..24 {
            let mut next = current.clone();
            self.eval_insts(&mut next, insts, sec, env, false, None, &mut path);
            next.rebase(step, &self.sigma, self.d);
            if next == current {
                return current;
            }
            if iter >= 8 {
                next.widen_from(&current);
            }
            current = next;
        }
        current
    }

    // ---- transfer functions ----------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn eval_insts(
        &mut self,
        state: &mut AbsState,
        insts: &[VInst],
        sec: Section,
        env: &ScenEnv,
        check: bool,
        i_val: Option<i64>,
        path: &mut Vec<usize>,
    ) {
        for (idx, inst) in insts.iter().enumerate() {
            path.push(idx);
            self.eval_inst(state, inst, sec, env, check, i_val, path);
            path.pop();
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_inst(
        &mut self,
        state: &mut AbsState,
        inst: &VInst,
        sec: Section,
        env: &ScenEnv,
        check: bool,
        i_val: Option<i64>,
        path: &mut Vec<usize>,
    ) {
        self.reached.insert((sec, path.clone()));
        let v = self.v as usize;
        match inst {
            VInst::LoadA { dst, addr } | VInst::LoadU { dst, addr } => {
                let truncating = matches!(inst, VInst::LoadA { .. });
                let site = self.site_for(sec, path, *dst, addr.array.index());
                let r = dst.index();
                match self.stream_base(addr, env, truncating) {
                    Some((arr, rc)) => {
                        for t in 0..v {
                            state.set_lane(r, t, Lane::known1(arr, rc + t as i64));
                        }
                    }
                    None => {
                        for t in 0..v {
                            state.set_lane(r, t, Lane::Top);
                        }
                    }
                }
                state.set_taint(r, BTreeSet::from([site]));
            }
            VInst::StoreA { addr, src } | VInst::StoreU { addr, src } => {
                let truncating = matches!(inst, VInst::StoreA { .. });
                for &s in state.taint(src.index()) {
                    self.live.insert(s);
                }
                if check {
                    self.check_store(state, *addr, *src, truncating, sec, env, i_val, path);
                }
            }
            VInst::ShiftPair { dst, a, b, amt } => {
                let m = amt.eval(env);
                let lanes: Vec<Lane> = (0..v)
                    .map(|t| {
                        if !(0..=self.v).contains(&m) {
                            return Lane::Top;
                        }
                        let idx = m as usize + t;
                        if idx < v {
                            state.lane(a.index(), idx)
                        } else {
                            state.lane(b.index(), idx - v)
                        }
                    })
                    .collect();
                let taint = state.taint_union(a.index(), b.index());
                for (t, lane) in lanes.into_iter().enumerate() {
                    state.set_lane(dst.index(), t, lane);
                }
                state.set_taint(dst.index(), taint);
            }
            VInst::Splice { dst, a, b, point } => {
                let p = point.eval(env);
                let lanes: Vec<Lane> = (0..v)
                    .map(|t| {
                        if !(0..=self.v).contains(&p) {
                            Lane::Top
                        } else if (t as i64) < p {
                            state.lane(a.index(), t)
                        } else {
                            state.lane(b.index(), t)
                        }
                    })
                    .collect();
                let taint = state.taint_union(a.index(), b.index());
                for (t, lane) in lanes.into_iter().enumerate() {
                    state.set_lane(dst.index(), t, lane);
                }
                state.set_taint(dst.index(), taint);
            }
            VInst::Perm { dst, a, b, pattern } => {
                let lanes: Vec<Lane> = (0..v)
                    .map(|t| match pattern.get(t).map(|&e| e as usize) {
                        Some(e) if e < v => state.lane(a.index(), e),
                        Some(e) if e < 2 * v => state.lane(b.index(), e - v),
                        _ => Lane::Top,
                    })
                    .collect();
                let taint = state.taint_union(a.index(), b.index());
                for (t, lane) in lanes.into_iter().enumerate() {
                    state.set_lane(dst.index(), t, lane);
                }
                state.set_taint(dst.index(), taint);
            }
            VInst::SplatConst { dst, .. } | VInst::SplatParam { dst, .. } => {
                for t in 0..v {
                    state.set_lane(dst.index(), t, Lane::Known(ProvSet::empty()));
                }
                state.set_taint(dst.index(), BTreeSet::new());
            }
            VInst::Bin { dst, a, b, .. } => {
                let lanes: Vec<Lane> = (0..v)
                    .map(|t| Lane::combine(state.lane(a.index(), t), state.lane(b.index(), t)))
                    .collect();
                let taint = state.taint_union(a.index(), b.index());
                for (t, lane) in lanes.into_iter().enumerate() {
                    state.set_lane(dst.index(), t, lane);
                }
                state.set_taint(dst.index(), taint);
            }
            VInst::Un { dst, a, .. } => {
                state.copy_reg(dst.index(), a.index());
            }
            VInst::Copy { dst, src } => {
                state.copy_reg(dst.index(), src.index());
            }
            VInst::Guarded { cond, body } => {
                if cond.eval(env) {
                    for (j, inner) in body.iter().enumerate() {
                        path.push(j);
                        self.eval_inst(state, inner, sec, env, check, i_val, path);
                        path.pop();
                    }
                }
            }
        }
    }

    /// The stream byte held by lane 0 of a load of `addr`, or `None`
    /// when the array's stride is not uniform (lanes widen to ⊤).
    fn stream_base(&self, addr: &Addr, env: &ScenEnv, truncating: bool) -> Option<(u32, i64)> {
        let arr = addr.array.index();
        if self.sigma.get(arr) != Some(&Some(addr.scale)) {
            return None;
        }
        let rc = if truncating {
            addr.elem * self.d - (env.betas[arr] + addr.elem * self.d).rem_euclid(self.v)
        } else {
            addr.elem * self.d
        };
        Some((arr as u32, rc))
    }

    fn site_for(&mut self, sec: Section, path: &[usize], reg: VReg, array: usize) -> u32 {
        if let Some(&id) = self.site_ids.get(&(sec, path.to_vec())) {
            return id;
        }
        let id = self.sites.len() as u32;
        self.site_ids.insert((sec, path.to_vec()), id);
        self.sites.push(SiteInfo {
            section: sec,
            path: path.to_vec(),
            reg,
            array,
        });
        id
    }

    // ---- the store-byte check (C.2/C.3 + splice windows) -----------

    #[allow(clippy::too_many_arguments)]
    fn check_store(
        &mut self,
        state: &AbsState,
        addr: Addr,
        src: VReg,
        truncating: bool,
        sec: Section,
        env: &ScenEnv,
        i_val: Option<i64>,
        path: &[usize],
    ) {
        let arr = addr.array.index();
        let Some(stmt_idx) = self.store_stmt.get(arr).copied().flatten() else {
            let rendered = self.render_addr(addr);
            self.emit(
                Lint::StoreByteMismatch,
                sec,
                path,
                Some(src),
                arr as u32,
                format!(
                    "store to {rendered}, but `{}` is not the target of any source statement",
                    self.array_name(arr)
                ),
            );
            return;
        };
        if self.stmts[stmt_idx].reduction {
            return; // accumulator traffic is not element-indexed
        }
        let Some(sigma) = self.sigma[arr] else { return };
        if sigma != addr.scale {
            return;
        }
        let (v, d, b) = (self.v, self.d, self.b);
        let rs = if truncating {
            addr.elem * d - (env.betas[arr] + addr.elem * d).rem_euclid(v)
        } else {
            addr.elem * d
        };
        let delta0 = self.stmts[stmt_idx].target_offset;
        let new_hi = if sec == Section::BodyPair { 2 * b } else { b };

        for t in 0..v {
            let lane = state.lane(src.index(), t as usize);
            if lane == Lane::Top {
                continue;
            }
            let r = rs + t;
            let e = r.div_euclid(d);
            let j = r.rem_euclid(d);
            let diff = e - delta0;
            let k = if diff.rem_euclid(sigma) == 0 {
                Some(diff.div_euclid(sigma))
            } else {
                None // a gap byte of a strided scatter
            };
            let class = match (k, sec, i_val) {
                (None, Section::Prologue | Section::Epilogue, _) => ByteClass::Old,
                (None, _, _) => ByteClass::Old,
                (Some(k), Section::Prologue, _) if k < 0 => ByteClass::Old,
                (Some(k), Section::Prologue, _) if k < new_hi => ByteClass::New,
                (Some(_), Section::Prologue, _) => ByteClass::Lenient,
                (Some(k), Section::Epilogue, Some(i)) if k >= 0 && i + k >= env.ub => {
                    ByteClass::Old
                }
                (Some(k), Section::Epilogue, Some(_)) if k >= 0 => ByteClass::New,
                (Some(_), Section::Epilogue, _) => ByteClass::Lenient,
                (Some(k), _, _) if (0..new_hi).contains(&k) => ByteClass::New,
                (Some(_), _, _) => ByteClass::Lenient,
            };

            // The stream bytes the source loop computes for element
            // `i + k`, expressed relative to each loaded stream.
            let expected: Vec<(u32, i64)> = match k {
                Some(k) => self.stmts[stmt_idx]
                    .loads
                    .iter()
                    .map(|&(a, sg, dl)| (a, (sg * k + dl) * d + j))
                    .collect(),
                None => Vec::new(),
            };
            let identity = (arr as u32, r);

            let violation = match (class, lane) {
                (_, Lane::Top) => None,
                (ByteClass::New, Lane::Undef)
                | (ByteClass::Old, Lane::Undef)
                | (ByteClass::Lenient, Lane::Undef) => Some("holds undefined data".to_string()),
                (ByteClass::New, Lane::Known(s)) => {
                    let ok = (expected.is_empty() || !s.is_empty())
                        && s.iter().all(|p| expected.contains(&p));
                    if ok {
                        None
                    } else {
                        Some(format!(
                            "must come from the source stream bytes {{{}}} but holds {}",
                            self.render_expected(&expected),
                            self.render_lane(lane)
                        ))
                    }
                }
                (ByteClass::Old, Lane::Known(s)) => {
                    if s.len() == 1 && s.contains(identity) {
                        None
                    } else {
                        Some(format!(
                            "lies outside the store's target region but holds {} instead of the original memory byte",
                            self.render_lane(lane)
                        ))
                    }
                }
                (ByteClass::Lenient, Lane::Known(s)) => {
                    let ok = s.iter().all(|p| p == identity || expected.contains(&p));
                    if ok {
                        None
                    } else {
                        Some(format!(
                            "holds {} — neither the element's stream bytes nor the original memory",
                            self.render_lane(lane)
                        ))
                    }
                }
            };

            if let Some(why) = violation {
                let lint = if class == ByteClass::Old
                    && matches!(sec, Section::Prologue | Section::Epilogue)
                {
                    Lint::SpliceClobber
                } else {
                    Lint::StoreByteMismatch
                };
                let op = if truncating { "vstore" } else { "vstoreu" };
                let rendered = self.render_addr(addr);
                let elem_desc = match (k, i_val) {
                    (Some(k), Some(i)) => format!("element i={}", i + k),
                    (Some(k), None) => format!("element i{k:+}"),
                    (None, _) => "a gap byte".to_string(),
                };
                self.emit(
                    lint,
                    sec,
                    path,
                    Some(src),
                    arr as u32,
                    format!("byte {t} of {op} {rendered} ({elem_desc}) {why}"),
                );
                return; // one diagnostic per store is enough
            }
        }
    }

    fn render_expected(&self, expected: &[(u32, i64)]) -> String {
        if expected.is_empty() {
            return "(none: invariant right-hand side)".to_string();
        }
        let parts: Vec<String> = expected
            .iter()
            .map(|&(a, r)| format!("{}[{r:+}B]", self.array_name(a as usize)))
            .collect();
        parts.join("|")
    }

    // ---- static lints ----------------------------------------------

    fn scan_redundant_shifts(&mut self) {
        let prog = self.prog;
        let mut sections: Vec<(Section, &[VInst])> = vec![
            (Section::Prologue, prog.prologue()),
            (Section::Body, prog.body()),
            (Section::Epilogue, prog.epilogue()),
        ];
        if let Some(pair) = prog.body_pair() {
            sections.push((Section::BodyPair, pair));
        }
        for (sec, insts) in sections {
            let mut rotations: HashMap<VReg, i64> = HashMap::new();
            for (idx, inst) in insts.iter().enumerate() {
                if let VInst::ShiftPair { dst, a, b, amt } = inst {
                    if let Some(c) = amt.as_const() {
                        if c == 0 || c == self.v {
                            let which = if c == 0 { *a } else { *b };
                            self.emit(
                                Lint::RedundantShift,
                                sec,
                                &[idx],
                                Some(*dst),
                                0,
                                format!(
                                    "vshiftpair({a}, {b}, {c}) is a no-op: it selects {which} unchanged"
                                ),
                            );
                        } else if a == b {
                            if let Some(&prev) = rotations.get(a) {
                                self.emit(
                                    Lint::RedundantShift,
                                    sec,
                                    &[idx],
                                    Some(*dst),
                                    0,
                                    format!(
                                        "rotation by {c} of {a}, itself a rotation by {prev}: fold into one vshiftpair by {}",
                                        (prev + c).rem_euclid(self.v)
                                    ),
                                );
                            }
                            rotations.insert(*dst, c);
                        }
                    }
                }
            }
        }
    }

    fn scan_chunk_loads(&mut self) {
        let prog = self.prog;
        match self.opts.reuse_hint {
            Some(ReuseMode::SoftwarePipeline) | Some(ReuseMode::PredictiveCommoning) => {}
            _ => return, // exactly-once only holds for reuse-enabled code
        }
        if self.stmts.iter().any(|s| s.reduction) {
            // Reduction trees defeat predictive commoning's pattern
            // matching; the exactly-once budget does not apply.
            return;
        }
        let mut sections: Vec<(Section, &[VInst], usize)> = vec![(Section::Body, prog.body(), 1)];
        if let Some(pair) = prog.body_pair() {
            sections.push((Section::BodyPair, pair, 2));
        }
        // The count budget is a construction guarantee of the software
        // pipeline only: it carries one register per stream, and LVN
        // afterwards can only remove loads. Predictive commoning starts
        // from the naive two-load form and commons by pattern matching,
        // which cross-stream MemNorm CSE legitimately defeats (two
        // streams sharing a chunk leave the pass nothing to rotate), so
        // for `pc` only the duplicate-chunk check below applies.
        let budget_sections: &[(Section, &[VInst], usize)] =
            if self.opts.reuse_hint == Some(ReuseMode::SoftwarePipeline) {
                &sections
            } else {
                &[]
            };
        for &(sec, insts, factor) in budget_sections {
            let mut counts: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            for (idx, inst) in insts.iter().enumerate() {
                if let VInst::LoadA { addr, .. } = inst {
                    let e = counts.entry(addr.array.index()).or_insert((0, idx));
                    e.0 += 1;
                }
            }
            for (&arr, &(count, first)) in &counts {
                if self.scatter_target[arr] {
                    continue;
                }
                let budget = factor * self.load_ref_count.get(arr).copied().unwrap_or(0);
                if count > budget {
                    self.emit(
                        Lint::ChunkLoadedTwice,
                        sec,
                        &[first],
                        None,
                        arr as u32,
                        format!(
                            "steady state issues {count} vload(s) of `{}` against a reuse budget of {budget} — \
                             a pipelined static stream must load each chunk exactly once (§5)",
                            self.array_name(arr)
                        ),
                    );
                }
            }
        }
        if self.opts.memnorm_hint {
            // With MemNorm the generator guarantees chunk-identical
            // loads were merged, so a duplicate chunk among compile-time
            // alignments is always a defect — in the primary body. The
            // unrolled pair is assembled *after* LVN, so its two halves
            // may legitimately each load a chunk the other also touches
            // (e.g. body streams at +16B and +32B overlap at +32B once
            // the second half advances by one block); only the
            // per-section count budget above applies there.
            let shape = prog.shape();
            for &(sec, insts, _) in sections.iter().filter(|s| s.0 == Section::Body) {
                let mut seen: HashMap<(usize, i64), usize> = HashMap::new();
                for (idx, inst) in insts.iter().enumerate() {
                    if let VInst::LoadA { addr, dst } = inst {
                        let arr = addr.array.index();
                        let known = prog
                            .source()
                            .arrays()
                            .get(arr)
                            .and_then(|a| a.align().known_offset(shape));
                        let (Some(beta), Some(sg)) =
                            (known, self.sigma.get(arr).copied().flatten())
                        else {
                            continue;
                        };
                        if sg != addr.scale {
                            continue;
                        }
                        let rc = addr.elem * self.d
                            - (beta as i64 + addr.elem * self.d).rem_euclid(self.v);
                        if let Some(&first) = seen.get(&(arr, rc)) {
                            self.emit(
                                Lint::ChunkLoadedTwice,
                                sec,
                                &[idx],
                                Some(*dst),
                                arr as u32,
                                format!(
                                    "vload reloads the chunk at stream offset {rc:+}B of `{}` already loaded at {sec}[{first}]",
                                    self.array_name(arr)
                                ),
                            );
                        } else {
                            seen.insert((arr, rc), idx);
                        }
                    }
                }
            }
        }
    }

    fn finalize_dead_loads(&mut self) {
        for id in 0..self.sites.len() {
            if self.live.contains(&(id as u32)) {
                continue;
            }
            let (section, path, reg, array) = {
                let s = &self.sites[id];
                (s.section, s.path.clone(), s.reg, s.array)
            };
            let name = self.array_name(array);
            self.emit(
                Lint::DeadLoad,
                section,
                &path,
                Some(reg),
                array as u32,
                format!(
                    "vload of `{name}` into {reg} never reaches any store in any analyzed scenario"
                ),
            );
        }
    }
}

/// Counts generated instructions recursively through `Guarded` bodies —
/// the denominator of the `chunk-never-verified` coverage counter.
fn count_insts(insts: &[VInst]) -> usize {
    insts
        .iter()
        .map(|i| match i {
            VInst::Guarded { body, .. } => 1 + count_insts(body),
            _ => 1,
        })
        .sum()
}
