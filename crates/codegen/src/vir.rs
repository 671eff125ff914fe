//! The vector target IR (VIR): the output language of code generation.

use crate::sexpr::{SCond, SExpr};
use simdize_ir::{ArrayId, BinOp, LoopProgram, ParamId, ScalarType, UnOp, VectorShape};
use std::fmt;
use std::sync::Arc;

/// A virtual vector register. The generator allocates an unbounded
/// supply; the simulator maps each to one `V`-byte register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub(crate) u32);

impl VReg {
    /// Index of the register in the program's register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A strided address, affine in the steady-state induction variable
/// `i`: the byte address is `base(array) + (scale · i + elem) · D`.
///
/// The paper's pipeline only emits `scale == 1` addresses; packs and
/// scatters (`codegen::pack`) use larger scales. Aligned vector
/// memory instructions *truncate* this address to the enclosing
/// `V`-byte boundary when executing, exactly like AltiVec loads/stores
/// (paper §1); the truncation is what makes the uniform `LB = B` lower
/// bound of §4.3 correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// The accessed array.
    pub array: ArrayId,
    /// Constant element offset added to the scaled induction variable.
    pub elem: i64,
    /// The induction-variable multiplier (1 for stride-one code).
    pub scale: i64,
}

impl Addr {
    /// Creates the stride-one address `array[i + elem]`.
    pub fn new(array: ArrayId, elem: i64) -> Addr {
        Addr {
            array,
            elem,
            scale: 1,
        }
    }

    /// Creates the strided address `array[scale·i + elem]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn strided(array: ArrayId, scale: i64, elem: i64) -> Addr {
        assert!(scale > 0, "address scale must be positive");
        Addr { array, elem, scale }
    }

    /// Creates the loop-invariant address `array[elem]` (scale 0) —
    /// used by reductions to access their fixed accumulator element.
    pub fn invariant(array: ArrayId, elem: i64) -> Addr {
        Addr {
            array,
            elem,
            scale: 0,
        }
    }

    /// The address with `i` substituted by `i + delta` (the paper's
    /// `Substitute(n, i → i ± B)`): the element offset advances by
    /// `scale · delta`.
    pub fn shifted(self, delta: i64) -> Addr {
        Addr {
            array: self.array,
            elem: self.elem + self.scale * delta,
            scale: self.scale,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}[{}]", self.array, self.elem);
        }
        let i = if self.scale == 1 {
            "i".to_string()
        } else {
            format!("{}*i", self.scale)
        };
        match self.elem {
            0 => write!(f, "{}[{i}]", self.array),
            e if e > 0 => write!(f, "{}[{i}+{e}]", self.array),
            e => write!(f, "{}[{i}{e}]", self.array),
        }
    }
}

/// One VIR instruction.
///
/// Every variant maps directly to a generic SIMD operation of paper
/// §2.2 (see [`crate::lower_altivec`] for the AltiVec lowering):
/// `LoadA`/`StoreA` are the truncating aligned memory operations,
/// `ShiftPair` is `vshiftpair` (a byte `vec_perm`), `Splice` is
/// `vsplice` (`vec_sel`), and the splats and lane ops are native.
///
/// `Copy` instructions at the end of a steady-state body are, by
/// convention, the loop-carried register rotations introduced by
/// software pipelining or predictive commoning (Figure 10 line 19).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VInst {
    /// `dst = vload(addr)` — loads the `V`-byte chunk enclosing `addr`.
    LoadA {
        /// Destination register.
        dst: VReg,
        /// The (to-be-truncated) address.
        addr: Addr,
    },
    /// `vstore(addr, src)` — stores to the chunk enclosing `addr`.
    StoreA {
        /// The (to-be-truncated) address.
        addr: Addr,
        /// The stored register.
        src: VReg,
    },
    /// `dst = vloadu(addr)` — a hardware *misaligned* load of `V` bytes
    /// at the exact address (SSE2 `movdqu`-style; see
    /// [`crate::generate_unaligned`]). Costs extra on real machines.
    LoadU {
        /// Destination register.
        dst: VReg,
        /// The exact byte address (not truncated).
        addr: Addr,
    },
    /// `vstoreu(addr, src)` — a hardware misaligned store at the exact
    /// address.
    StoreU {
        /// The exact byte address (not truncated).
        addr: Addr,
        /// The stored register.
        src: VReg,
    },
    /// `dst = vshiftpair(a, b, amt)` — bytes `amt .. amt+V` of the
    /// double-length vector `a ∥ b`; `amt ∈ [0, V]`, possibly runtime
    /// (`V` selects `b` whole — the runtime right-shift identity case).
    ShiftPair {
        /// Destination register.
        dst: VReg,
        /// First (earlier) input vector.
        a: VReg,
        /// Second (later) input vector.
        b: VReg,
        /// Loop-invariant shift amount `(from − to) mod V`.
        amt: SExpr,
    },
    /// `dst = vsplice(a, b, point)` — the first `point` bytes of `a`
    /// followed by the last `V − point` bytes of `b`; `point ∈ [0, V]`.
    Splice {
        /// Destination register.
        dst: VReg,
        /// Vector supplying the leading bytes.
        a: VReg,
        /// Vector supplying the trailing bytes.
        b: VReg,
        /// Loop-invariant splice point.
        point: SExpr,
    },
    /// `dst = vperm(a, b, pattern)` — the general AltiVec `vec_perm`:
    /// result byte `t` is byte `pattern[t]` of the double-length vector
    /// `a ∥ b` (entries in `0..2V`). Subsumes `vshiftpair`; used by the
    /// strided extension's pack/scatter networks.
    Perm {
        /// Destination register.
        dst: VReg,
        /// First input vector (bytes `0..V`).
        a: VReg,
        /// Second input vector (bytes `V..2V`).
        b: VReg,
        /// The byte-selection pattern, `V` entries in `0..2V`.
        pattern: Vec<u8>,
    },
    /// `dst = vsplat(const)` — replicate a constant into every lane.
    SplatConst {
        /// Destination register.
        dst: VReg,
        /// The replicated value (wrapped to the element type).
        value: i64,
    },
    /// `dst = vsplat(param)` — replicate a runtime scalar parameter.
    SplatParam {
        /// Destination register.
        dst: VReg,
        /// The replicated parameter.
        param: ParamId,
    },
    /// `dst = vop(a, b)` — lane-wise binary operation.
    Bin {
        /// Destination register.
        dst: VReg,
        /// The lane operation.
        op: BinOp,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `dst = vop(a)` — lane-wise unary operation.
    Un {
        /// Destination register.
        dst: VReg,
        /// The lane operation.
        op: UnOp,
        /// The operand.
        a: VReg,
    },
    /// `dst = src` — register move (loop-carried rotation).
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// Instructions executed only when a loop-invariant condition holds
    /// (epilogue leftovers, eqs. 14/16).
    Guarded {
        /// The guard condition.
        cond: SCond,
        /// The guarded instruction sequence.
        body: Vec<VInst>,
    },
}

impl VInst {
    /// The register this instruction defines, if any (guarded blocks
    /// define none at top level).
    pub fn def(&self) -> Option<VReg> {
        match self {
            VInst::LoadA { dst, .. }
            | VInst::LoadU { dst, .. }
            | VInst::ShiftPair { dst, .. }
            | VInst::Perm { dst, .. }
            | VInst::Splice { dst, .. }
            | VInst::SplatConst { dst, .. }
            | VInst::SplatParam { dst, .. }
            | VInst::Bin { dst, .. }
            | VInst::Un { dst, .. }
            | VInst::Copy { dst, .. } => Some(*dst),
            VInst::StoreA { .. } | VInst::StoreU { .. } | VInst::Guarded { .. } => None,
        }
    }

    /// [`VInst::def`], for a pass that renames it.
    pub(crate) fn def_mut(&mut self) -> Option<&mut VReg> {
        match self {
            VInst::LoadA { dst, .. }
            | VInst::LoadU { dst, .. }
            | VInst::ShiftPair { dst, .. }
            | VInst::Perm { dst, .. }
            | VInst::Splice { dst, .. }
            | VInst::SplatConst { dst, .. }
            | VInst::SplatParam { dst, .. }
            | VInst::Bin { dst, .. }
            | VInst::Un { dst, .. }
            | VInst::Copy { dst, .. } => Some(dst),
            VInst::StoreA { .. } | VInst::StoreU { .. } | VInst::Guarded { .. } => None,
        }
    }

    /// [`VInst::visit_uses`], for a pass that rewrites what the
    /// instruction reads (recursing into guarded blocks too).
    pub(crate) fn visit_uses_mut(&mut self, f: &mut impl FnMut(&mut VReg)) {
        match self {
            VInst::LoadA { .. }
            | VInst::LoadU { .. }
            | VInst::SplatConst { .. }
            | VInst::SplatParam { .. } => {}
            VInst::StoreA { src, .. } | VInst::StoreU { src, .. } | VInst::Copy { src, .. } => {
                f(src)
            }
            VInst::ShiftPair { a, b, .. }
            | VInst::Splice { a, b, .. }
            | VInst::Perm { a, b, .. }
            | VInst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            VInst::Un { a, .. } => f(a),
            VInst::Guarded { body, .. } => {
                for inst in body {
                    inst.visit_uses_mut(f);
                }
            }
        }
    }

    /// Calls `f` on every register this instruction reads (recursing
    /// into guarded blocks).
    pub fn visit_uses(&self, f: &mut impl FnMut(VReg)) {
        match self {
            VInst::LoadA { .. }
            | VInst::LoadU { .. }
            | VInst::SplatConst { .. }
            | VInst::SplatParam { .. } => {}
            VInst::StoreA { src, .. } | VInst::StoreU { src, .. } => f(*src),
            VInst::ShiftPair { a, b, .. }
            | VInst::Splice { a, b, .. }
            | VInst::Perm { a, b, .. } => {
                f(*a);
                f(*b);
            }
            VInst::Bin { a, b, .. } => {
                f(*a);
                f(*b);
            }
            VInst::Un { a, .. } => f(*a),
            VInst::Copy { src, .. } => f(*src),
            VInst::Guarded { body, .. } => {
                for inst in body {
                    inst.visit_uses(f);
                }
            }
        }
    }
}

impl fmt::Display for VInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VInst::LoadA { dst, addr } => write!(f, "{dst} = vload {addr}"),
            VInst::StoreA { addr, src } => write!(f, "vstore {addr}, {src}"),
            VInst::LoadU { dst, addr } => write!(f, "{dst} = vloadu {addr}"),
            VInst::StoreU { addr, src } => write!(f, "vstoreu {addr}, {src}"),
            VInst::ShiftPair { dst, a, b, amt } => {
                write!(f, "{dst} = vshiftpair({a}, {b}, {amt})")
            }
            VInst::Splice { dst, a, b, point } => {
                write!(f, "{dst} = vsplice({a}, {b}, {point})")
            }
            VInst::Perm { dst, a, b, pattern } => {
                let pat: Vec<String> = pattern.iter().map(|x| x.to_string()).collect();
                write!(f, "{dst} = vperm({a}, {b}, [{}])", pat.join(","))
            }
            VInst::SplatConst { dst, value } => write!(f, "{dst} = vsplat({value})"),
            VInst::SplatParam { dst, param } => write!(f, "{dst} = vsplat({param})"),
            VInst::Bin { dst, op, a, b } => {
                write!(f, "{dst} = v{}({a}, {b})", format!("{op:?}").to_lowercase())
            }
            VInst::Un { dst, op, a } => {
                write!(f, "{dst} = v{}({a})", format!("{op:?}").to_lowercase())
            }
            VInst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            VInst::Guarded { cond, body } => {
                writeln!(f, "if {cond} {{")?;
                for inst in body {
                    writeln!(f, "    {inst}")?;
                }
                write!(f, "  }}")
            }
        }
    }
}

/// A complete simdized loop in VIR: prologue, steady-state body,
/// optional unrolled body pair, epilogue, bounds and guard.
///
/// Execution model (implemented by `simdize-vm`):
///
/// ```text
/// if ub <= guard_min_trip { run the original scalar loop } else {
///     i = 0;  run prologue;
///     i = LB (= B);
///     if body_pair: while i + B < UB { run body_pair; i += 2B }
///     while i < UB { run body; i += B }
///     run epilogue (i now at the first un-executed steady value)
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimdProgram {
    pub(crate) program: Arc<LoopProgram>,
    pub(crate) shape: VectorShape,
    pub(crate) nvregs: u32,
    pub(crate) prologue: Vec<VInst>,
    pub(crate) body: Vec<VInst>,
    pub(crate) body_pair: Option<Vec<VInst>>,
    pub(crate) epilogue: Vec<VInst>,
    pub(crate) lower_bound: u64,
    pub(crate) upper_bound: SExpr,
    pub(crate) guard_min_trip: u64,
}

impl SimdProgram {
    /// The source loop this program simdizes (also the scalar fallback
    /// semantics).
    pub fn source(&self) -> &LoopProgram {
        &self.program
    }

    /// The target vector shape.
    pub fn shape(&self) -> VectorShape {
        self.shape
    }

    /// The loop's element type.
    pub fn elem(&self) -> ScalarType {
        self.program.elem()
    }

    /// The blocking factor `B` (also the steady-state step).
    pub fn block(&self) -> u32 {
        self.shape.blocking_factor(self.program.elem())
    }

    /// Number of virtual vector registers used.
    pub fn vreg_count(&self) -> u32 {
        self.nvregs
    }

    /// Prologue instructions, executed once with `i = 0`.
    pub fn prologue(&self) -> &[VInst] {
        &self.prologue
    }

    /// Steady-state body, executed with `i = LB, LB+B, …` while
    /// `i < UB`.
    pub fn body(&self) -> &[VInst] {
        &self.body
    }

    /// The unrolled two-iteration body, if the unroll-by-2 pass ran.
    /// Executed while `i + B < UB`, advancing `i` by `2B`.
    pub fn body_pair(&self) -> Option<&[VInst]> {
        self.body_pair.as_deref()
    }

    /// Epilogue instructions, executed once with `i` at the first
    /// steady value not executed.
    pub fn epilogue(&self) -> &[VInst] {
        &self.epilogue
    }

    /// The steady-state lower bound `LB = B` (eq. 12).
    pub fn lower_bound(&self) -> u64 {
        self.lower_bound
    }

    /// The steady-state upper bound `UB` (eq. 13 or 15).
    pub fn upper_bound(&self) -> &SExpr {
        &self.upper_bound
    }

    /// Trip counts of `guard_min_trip` or less run the scalar fallback
    /// (§4.4: the simdization is valid when `ub > 3B`).
    pub fn guard_min_trip(&self) -> u64 {
        self.guard_min_trip
    }

    /// Mutable access to the prologue — for testing tools that corrupt
    /// or patch generated programs (mutation testing, fault injection).
    pub fn prologue_mut(&mut self) -> &mut Vec<VInst> {
        &mut self.prologue
    }

    /// Mutable access to the steady-state body (see
    /// [`SimdProgram::prologue_mut`]).
    pub fn body_mut(&mut self) -> &mut Vec<VInst> {
        &mut self.body
    }

    /// Mutable access to the unrolled body pair, if present (see
    /// [`SimdProgram::prologue_mut`]).
    pub fn body_pair_mut(&mut self) -> Option<&mut Vec<VInst>> {
        self.body_pair.as_mut()
    }

    /// Mutable access to the epilogue (see
    /// [`SimdProgram::prologue_mut`]).
    pub fn epilogue_mut(&mut self) -> &mut Vec<VInst> {
        &mut self.epilogue
    }

    /// Allocates a fresh virtual register (for injected instructions).
    pub fn alloc_vreg(&mut self) -> VReg {
        let r = VReg(self.nvregs);
        self.nvregs += 1;
        r
    }

    /// Total static instruction count (including inside guards), per
    /// section: `(prologue, body, epilogue)`.
    pub fn static_counts(&self) -> (usize, usize, usize) {
        fn count(insts: &[VInst]) -> usize {
            insts
                .iter()
                .map(|i| match i {
                    VInst::Guarded { body, .. } => count(body),
                    _ => 1,
                })
                .sum()
        }
        (
            count(&self.prologue),
            count(&self.body),
            count(&self.epilogue),
        )
    }
}

impl fmt::Display for SimdProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; simdized loop: V={} D={} B={} guard: ub > {}",
            self.shape.bytes(),
            self.elem().size(),
            self.block(),
            self.guard_min_trip
        )?;
        writeln!(f, "prologue (i = 0):")?;
        for inst in &self.prologue {
            writeln!(f, "  {inst}")?;
        }
        if let Some(pair) = &self.body_pair {
            writeln!(
                f,
                "steady ×2 (i = {}; i + {} < {}; i += {}):",
                self.lower_bound,
                self.block(),
                self.upper_bound,
                2 * self.block()
            )?;
            for inst in pair {
                writeln!(f, "  {inst}")?;
            }
            writeln!(
                f,
                "steady leftover (while i < {}; i += {}):",
                self.upper_bound,
                self.block()
            )?;
        } else {
            writeln!(
                f,
                "steady (i = {}; i < {}; i += {}):",
                self.lower_bound,
                self.upper_bound,
                self.block()
            )?;
        }
        for inst in &self.body {
            writeln!(f, "  {inst}")?;
        }
        writeln!(f, "epilogue:")?;
        for inst in &self.epilogue {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_shift_and_display() {
        let a = Addr::new(ArrayId::from_index(1), 3);
        assert_eq!(a.shifted(4).elem, 7);
        assert_eq!(a.shifted(-4).elem, -1);
        assert_eq!(a.to_string(), "arr1[i+3]");
        assert_eq!(a.shifted(-4).to_string(), "arr1[i-1]");
        assert_eq!(Addr::new(ArrayId::from_index(0), 0).to_string(), "arr0[i]");
    }

    #[test]
    fn inst_def_and_uses() {
        let i = VInst::ShiftPair {
            dst: VReg(2),
            a: VReg(0),
            b: VReg(1),
            amt: SExpr::c(4),
        };
        assert_eq!(i.def(), Some(VReg(2)));
        let mut uses = Vec::new();
        i.visit_uses(&mut |r| uses.push(r));
        assert_eq!(uses, vec![VReg(0), VReg(1)]);

        let g = VInst::Guarded {
            cond: SCond::Gt(SExpr::Ub, SExpr::c(0)),
            body: vec![VInst::StoreA {
                addr: Addr::new(ArrayId::from_index(0), 0),
                src: VReg(7),
            }],
        };
        assert_eq!(g.def(), None);
        let mut uses = Vec::new();
        g.visit_uses(&mut |r| uses.push(r));
        assert_eq!(uses, vec![VReg(7)]);
    }

    #[test]
    fn inst_display() {
        assert_eq!(
            VInst::LoadA {
                dst: VReg(0),
                addr: Addr::new(ArrayId::from_index(2), 1)
            }
            .to_string(),
            "v0 = vload arr2[i+1]"
        );
        assert_eq!(
            VInst::Bin {
                dst: VReg(3),
                op: BinOp::Add,
                a: VReg(1),
                b: VReg(2)
            }
            .to_string(),
            "v3 = vadd(v1, v2)"
        );
        assert_eq!(
            VInst::Copy {
                dst: VReg(1),
                src: VReg(0)
            }
            .to_string(),
            "v1 = v0"
        );
    }
}
