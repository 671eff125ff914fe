//! The template memo: each distinct request source compiled once.
//!
//! A compiled program depends only on the source text and the forced
//! placement policy — never on the seed, trip count or data — so the
//! front half (parse → reorg → codegen → fingerprint → check) of a
//! repeated source is a pure function worth remembering, as the
//! [`KernelCache`](simdize::KernelCache) remembers the bake. An entry
//! is keyed by the source bytes and the forced policy, looked up by a
//! hash and then compared in full, so two sources never share one; its
//! value is an `Arc` to the [`Template`] (program, fingerprint, check)
//! and the policy the driver chose. Only successful compiles are
//! stored, so a failing source answers its error on every request.
//!
//! The memo is bounded twice: at most `capacity` entries, and at most
//! `budget` bytes charged per entry for its source text and its
//! program's instructions (a request line may be 1 MiB, so an entry cap
//! alone would let a few hundred large sources pin hundreds of MiB).
//! Either bound evicts least recently used entries first.

use simdize::{Policy, Template, VInst};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A compiled source: its template and the policy the driver chose.
pub(crate) type Compiled = (Arc<Template<'static>>, Policy);

/// A bounded, source-keyed map of compiled templates.
pub(crate) struct TemplateMemo {
    inner: Mutex<Inner>,
    capacity: usize,
    budget: usize,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Entry {
    hash: u64,
    forced: Option<Policy>,
    source: Box<str>,
    compiled: Compiled,
    bytes: usize,
    last_used: u64,
}

/// One consistent snapshot of the memo's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub occupied: usize,
    pub bytes: usize,
    pub capacity: usize,
}

fn key_hash(source: &str, forced: Option<Policy>) -> u64 {
    let mut h = DefaultHasher::new();
    (source, forced).hash(&mut h);
    h.finish()
}

/// What an entry is charged against the byte budget: its source text
/// and its program's instructions.
fn charge(source: &str, template: &Template) -> usize {
    let p = template.program();
    let insts = [
        p.prologue(),
        p.body(),
        p.body_pair().unwrap_or_default(),
        p.epilogue(),
    ]
    .iter()
    .map(|s| s.len())
    .sum::<usize>();
    source.len() + insts * std::mem::size_of::<VInst>()
}

impl TemplateMemo {
    /// A memo of at most `capacity` entries and `budget` charged bytes.
    pub(crate) fn new(capacity: usize, budget: usize) -> TemplateMemo {
        TemplateMemo {
            inner: Mutex::new(Inner::default()),
            capacity,
            budget,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The template for `source` under the `forced` policy: the stored
    /// one, or `compile`'s, stored when it succeeds. `compile` runs
    /// outside the lock; two racing misses may both compile, and the
    /// first stored wins.
    pub(crate) fn get_or_compile(
        &self,
        source: &str,
        forced: Option<Policy>,
        compile: impl FnOnce() -> Result<(Template<'static>, Policy), String>,
    ) -> Result<Compiled, String> {
        let hash = key_hash(source, forced);
        let same = |e: &Entry| e.hash == hash && e.forced == forced && *e.source == *source;
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.iter_mut().find(|e| same(e)) {
                entry.last_used = tick;
                let compiled = entry.compiled.clone();
                inner.hits += 1;
                return Ok(compiled);
            }
            inner.misses += 1;
        }
        let (template, policy) = compile()?;
        let bytes = charge(source, &template);
        let compiled = (Arc::new(template), policy);
        if self.capacity == 0 || bytes > self.budget {
            return Ok(compiled);
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.iter_mut().find(|e| same(e)) {
            entry.last_used = tick;
            return Ok(entry.compiled.clone());
        }
        while inner.entries.len() >= self.capacity || inner.bytes + bytes > self.budget {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("over a bound, so nonempty");
            let evicted = inner.entries.swap_remove(lru);
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
        }
        inner.bytes += bytes;
        inner.entries.push(Entry {
            hash,
            forced,
            source: source.into(),
            compiled: compiled.clone(),
            bytes,
            last_used: tick,
        });
        Ok(compiled)
    }

    /// The counters and occupancy, read under one lock.
    pub(crate) fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            occupied: inner.entries.len(),
            bytes: inner.bytes,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize::{parse_program, Simdizer};
    use std::borrow::Cow;

    /// Figure 1 with `c`'s offset varied: `zero` and the default
    /// (`dominant`) place its shifts differently.
    fn source(k: usize) -> String {
        format!(
            "arrays {{ a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; }} \
             for i in 0..40 {{ a[i+3] = b[i+1] + c[i+{k}]; }}"
        )
    }

    /// The server's front half, as `handlers::template` runs it.
    fn front_half(
        source: &str,
        forced: Option<Policy>,
    ) -> Result<(Template<'static>, Policy), String> {
        let program = parse_program(source).map_err(|e| e.to_string())?;
        let driver = forced.map_or_else(Simdizer::new, |p| Simdizer::new().policy(p));
        let compiled = driver.compile(&program).map_err(|e| e.to_string())?;
        Ok((
            Template::new(Cow::Owned(compiled)),
            driver.policy_for(&program),
        ))
    }

    fn get(memo: &TemplateMemo, source: &str, forced: Option<Policy>) -> Compiled {
        memo.get_or_compile(source, forced, || front_half(source, forced))
            .unwrap()
    }

    #[test]
    fn a_hit_shares_the_stored_template() {
        let memo = TemplateMemo::new(4, usize::MAX);
        let (first, policy) = get(&memo, &source(1), None);
        let (again, _) = get(&memo, &source(1), None);
        assert!(
            Arc::ptr_eq(&first, &again),
            "a hit must not recompile or clone"
        );
        assert_eq!(policy, Policy::Dominant);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.occupied), (1, 1, 1));
        assert!(stats.bytes > source(1).len());
    }

    #[test]
    fn eviction_takes_the_least_recently_used_entry() {
        let memo = TemplateMemo::new(2, usize::MAX);
        let a = get(&memo, &source(1), None).0;
        get(&memo, &source(2), None);
        // Touch `a`, so the third source evicts the second.
        assert!(Arc::ptr_eq(&a, &get(&memo, &source(1), None).0));
        get(&memo, &source(3), None);
        assert!(Arc::ptr_eq(&a, &get(&memo, &source(1), None).0));
        let stats = memo.stats();
        assert_eq!((stats.evictions, stats.occupied, stats.hits), (1, 2, 2));
        get(&memo, &source(2), None);
        assert_eq!(memo.stats().misses, 4, "the evicted source compiles again");
    }

    #[test]
    fn the_byte_budget_bounds_what_is_kept() {
        let padded = |k: usize| format!("{}// {}\n", source(k), "x".repeat(8000));
        let charges: Vec<usize> = (1..=6)
            .map(|k| charge(&padded(k), &front_half(&padded(k), None).unwrap().0))
            .collect();
        let (lo, hi) = (
            *charges.iter().min().unwrap(),
            *charges.iter().max().unwrap(),
        );
        assert!(hi < lo * 5 / 4, "{charges:?}");
        // Room for two padded entries, never three, though the entry
        // cap would allow eight.
        let budget = 2 * hi + lo / 2;
        let memo = TemplateMemo::new(8, budget);
        for k in 1..=6 {
            get(&memo, &padded(k), None);
            assert!(memo.stats().bytes <= budget);
        }
        let stats = memo.stats();
        assert_eq!((stats.occupied, stats.evictions), (2, 4));
        // An entry over the whole budget is served and not kept.
        let tiny = TemplateMemo::new(8, 16);
        get(&tiny, &source(1), None);
        assert_eq!((tiny.stats().occupied, tiny.stats().bytes), (0, 0));
    }

    #[test]
    fn the_forced_policy_is_part_of_the_key() {
        let memo = TemplateMemo::new(8, usize::MAX);
        let (zero, chosen_zero) = get(&memo, &source(1), Some(Policy::Zero));
        let (auto, chosen_auto) = get(&memo, &source(1), None);
        assert_eq!((chosen_zero, chosen_auto), (Policy::Zero, Policy::Dominant));
        assert_ne!(zero.program(), auto.program());
        // A forced `dominant` compiles the same program as the default
        // but is still its own entry.
        let (dominant, _) = get(&memo, &source(1), Some(Policy::Dominant));
        assert!(!Arc::ptr_eq(&dominant, &auto));
        assert_eq!(dominant.program(), auto.program());
        assert!(Arc::ptr_eq(
            &zero,
            &get(&memo, &source(1), Some(Policy::Zero)).0
        ));
        assert_eq!(memo.stats().occupied, 3);
    }

    #[test]
    fn errors_are_not_stored() {
        let memo = TemplateMemo::new(8, usize::MAX);
        let broken = "arrays { broken";
        let runs = std::cell::Cell::new(0);
        for _ in 0..3 {
            let reply = memo.get_or_compile(broken, None, || {
                runs.set(runs.get() + 1);
                front_half(broken, None)
            });
            assert!(reply.is_err());
        }
        assert_eq!(runs.get(), 3, "a failing source compiles on every request");
        let stats = memo.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.occupied, stats.bytes),
            (0, 3, 0, 0)
        );
    }
}
