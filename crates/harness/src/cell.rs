//! Experiment cells and their canonical, version-stamped cache keys.

use bsched_core::{SchedulerKind, TieBreak};
use bsched_mem::{CacheConfig, MemConfig};
use bsched_pipeline::CompileOptions;
use bsched_sim::SimConfig;
use bsched_util::Fnv1a;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Version stamp of the canonical cell encoding *and* of the on-disk
/// cache document format. Bump whenever either changes meaning — e.g. a
/// new `CompileOptions` field, a simulator metric added, a latency
/// constant recalibrated — so stale cache files are ignored rather than
/// misread.
///
/// v2: `CompileOptions` gained `reference_weights` (naive-vs-kernel
/// weight benching), serialized as `refweights=`.
///
/// v3: cached documents gained the `verified` flag recording that the
/// `bsched-verify` conformance suite passed when the cell was computed;
/// verifying runs treat unverified cached cells as misses.
///
/// v4: `CompileOptions` gained the exact scheduler arm and its
/// `exact_budget` knob, serialized as `sched=exact` / `exact_budget=`.
/// The budget is metrics-relevant — a larger budget can prove a better
/// schedule for the same cell — so it must key the cache; its unit is
/// deterministic search nodes, never wall clock, so budgeted results
/// stay machine-independent and cacheable.
///
/// v5: the MachineSpec redesign added three metrics-relevant machine
/// axes — the branch-predictor kind (`bp_kind=`), the L1D prefetcher
/// (`prefetch=`), and the MSHR policy (`mshr_policy=`) — and the cached
/// memory stats gained prefetch counters.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

/// One deduplicated unit of experimental work: a kernel compiled under
/// one full option set (the options embed the simulated machine) — a
/// compile key × a machine.
///
/// Equality, ordering and hashing all go through the canonical key, so
/// two cells built independently from equal inputs collapse to one grid
/// entry, and `BTreeMap<ExperimentCell, _>` iterates in a stable,
/// platform-independent order.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    kernel: String,
    opts: CompileOptions,
    canon: String,
    /// Length of the [`compile_key`](Self::compile_key) prefix of `canon`.
    compile_len: usize,
}

impl ExperimentCell {
    /// Builds a cell and precomputes its canonical key.
    #[must_use]
    pub fn new(kernel: &str, opts: CompileOptions) -> Self {
        let (canon, compile_len) = canonical_key(kernel, &opts);
        ExperimentCell {
            kernel: kernel.to_string(),
            opts,
            canon,
            compile_len,
        }
    }

    /// The kernel name.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The compile options (machine configuration included).
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// The canonical key: a flat, human-readable serialization of every
    /// result-affecting field, prefixed with [`CACHE_SCHEMA_VERSION`].
    #[must_use]
    pub fn canonical_key(&self) -> &str {
        &self.canon
    }

    /// The canonical key without its machine part: every field that
    /// can change the compiled program. Compilation never reads the
    /// simulated machine, so cells that differ only in machine share
    /// this key — and one compile. A prefix of
    /// [`canonical_key`](Self::canonical_key).
    #[must_use]
    pub fn compile_key(&self) -> &str {
        &self.canon[..self.compile_len]
    }

    /// Stable FNV-1a content hash of the canonical key — the address of
    /// this cell in the on-disk cache.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        Fnv1a::hash(self.canon.as_bytes())
    }
}

impl PartialEq for ExperimentCell {
    fn eq(&self, other: &Self) -> bool {
        self.canon == other.canon
    }
}
impl Eq for ExperimentCell {}

impl PartialOrd for ExperimentCell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExperimentCell {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canon.cmp(&other.canon)
    }
}

impl Hash for ExperimentCell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

impl std::fmt::Display for ExperimentCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kernel, self.opts.label())
    }
}

/// Serializes every field of the cell that can influence its metrics.
///
/// The encoding is exhaustive by hand: each struct's fields are written
/// in declaration order with explicit names, so two option sets differing
/// in *any* field — including ablation knobs like `weight_cap` or the
/// write-buffer depth — produce different keys, while label collisions
/// (e.g. two configs that both print as `BS+LU4`) cannot alias.
///
/// Every compile field is written before the machine, so the key's
/// first `n` bytes, with `n` the returned length, are the cell's
/// compile key.
fn canonical_key(kernel: &str, o: &CompileOptions) -> (String, usize) {
    let mut s = String::with_capacity(256);
    let _ = write!(s, "v{CACHE_SCHEMA_VERSION};kernel={kernel}");
    let _ = write!(s, ";sched={}", scheduler_tag(o.scheduler));
    match o.unroll {
        None => s.push_str(";unroll=-"),
        Some(f) => {
            let _ = write!(s, ";unroll={f}");
        }
    }
    let _ = write!(s, ";trace={}", u8::from(o.trace));
    let _ = write!(s, ";locality={}", u8::from(o.locality));
    let _ = write!(s, ";predicate={}", u8::from(o.predicate));
    let _ = write!(s, ";weight_cap={}", o.weight_cap);
    let _ = write!(s, ";tie_break={}", tie_break_tag(o.tie_break));
    match o.unroll_budget {
        None => s.push_str(";unroll_budget=-"),
        Some(b) => {
            let _ = write!(s, ";unroll_budget={b}");
        }
    }
    let _ = write!(s, ";selective={}", u8::from(o.selective));
    let _ = write!(s, ";refweights={}", u8::from(o.reference_weights));
    let _ = write!(s, ";exact_budget={}", o.exact_budget);
    let compile_len = s.len();
    canon_sim(&o.sim, &mut s);
    (s, compile_len)
}

fn scheduler_tag(k: SchedulerKind) -> &'static str {
    match k {
        SchedulerKind::Traditional => "trad",
        SchedulerKind::Balanced => "bal",
        SchedulerKind::SelectiveBalanced => "selbal",
        SchedulerKind::Exact => "exact",
    }
}

fn tie_break_tag(t: TieBreak) -> &'static str {
    match t {
        TieBreak::Standard => "std",
        TieBreak::ExposedFirst => "exposed",
        TieBreak::ProgramOrder => "order",
    }
}

fn canon_sim(c: &SimConfig, s: &mut String) {
    canon_mem(&c.mem, s);
    let _ = write!(
        s,
        ";bp_kind={};bp_entries={};bp_penalty={}",
        c.branch.kind.label(),
        c.branch.entries,
        c.branch.mispredict_penalty
    );
    let _ = write!(s, ";fuel={}", c.fuel);
    let _ = write!(s, ";ifetch={}", u8::from(c.model_ifetch));
    let _ = write!(s, ";issue={};ports={}", c.issue_width, c.mem_ports);
    let _ = write!(s, ";uniform_fixed={}", u8::from(c.uniform_fixed_latency));
}

fn canon_mem(m: &MemConfig, s: &mut String) {
    canon_cache("l1d", &m.l1d, s);
    canon_cache("icache", &m.icache, s);
    canon_cache("l2", &m.l2, s);
    match &m.l3 {
        None => s.push_str(";l3=-"),
        Some(c) => canon_cache("l3", c, s),
    }
    let _ = write!(s, ";mem_latency={};mshrs={}", m.mem_latency, m.mshrs);
    let _ = write!(
        s,
        ";prefetch={};mshr_policy={}",
        m.prefetch.label(),
        m.mshr_policy.label()
    );
    let _ = write!(
        s,
        ";dtb={};itb={};page={};tlb_penalty={}",
        m.dtb_entries, m.itb_entries, m.page_size, m.tlb_miss_penalty
    );
    match m.write_buffer {
        None => s.push_str(";wb=-"),
        Some(n) => {
            let _ = write!(s, ";wb={n}");
        }
    }
    let _ = write!(s, ";wb_drain={}", m.write_drain_cycles);
}

fn canon_cache(name: &str, c: &CacheConfig, s: &mut String) {
    let _ = write!(
        s,
        ";{name}={}x{}w{}l{}",
        c.size, c.line, c.assoc, c.latency
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::SchedulerKind;

    fn base() -> CompileOptions {
        CompileOptions::new(SchedulerKind::Balanced)
    }

    #[test]
    fn equal_inputs_collapse() {
        let a = ExperimentCell::new("tomcatv", base().with_unroll(4));
        let b = ExperimentCell::new("tomcatv", base().with_unroll(4));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    /// Every option set that differs from `base()` in one compile field.
    fn compile_variants() -> Vec<CompileOptions> {
        vec![
            CompileOptions::new(SchedulerKind::Traditional),
            base().with_unroll(4),
            base().with_unroll(8),
            base().with_trace(),
            base().with_locality(),
            base().without_predication(),
            base().with_weight_cap(10),
            base().with_tie_break(TieBreak::ProgramOrder),
            base().with_unroll_budget(32),
            base().without_selective(),
            base().with_reference_weights(),
            CompileOptions::new(SchedulerKind::Exact),
            base().with_exact_budget(7),
        ]
    }

    /// Every machine that differs from the default in one knob.
    fn machine_variants() -> Vec<SimConfig> {
        let d = SimConfig::default;
        vec![
            d().with_issue(4, 2),
            d().with_issue(4, 4),
            d().with_mshrs(1),
            d().with_ifetch(false),
            d().simple_model_1993(),
            d().with_predictor(bsched_sim::PredictorKind::Gshare),
            d().with_predictor(bsched_sim::PredictorKind::TageLite),
            d().with_prefetch(bsched_mem::PrefetchKind::NextLine),
            d().with_prefetch(bsched_mem::PrefetchKind::Stride),
            d().with_mshr_policy(bsched_mem::MshrPolicy::NoMerge),
            d().with_mshr_policy(bsched_mem::MshrPolicy::Blocking),
        ]
    }

    #[test]
    fn every_knob_changes_the_key() {
        let cell = |o: CompileOptions| ExperimentCell::new("k", o).canonical_key().to_string();
        let reference = cell(base());
        let mut variants: Vec<String> = compile_variants().into_iter().map(cell).collect();
        variants.extend(
            machine_variants()
                .into_iter()
                .map(|m| cell(base().with_sim(m))),
        );
        let mut all = vec![reference.clone()];
        all.extend(variants.iter().cloned());
        let distinct: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "some knob did not reach the key");
        for v in &variants {
            assert_ne!(v, &reference);
        }
    }

    #[test]
    fn compile_key_is_the_canonical_key_minus_the_machine() {
        let key = |o: CompileOptions| ExperimentCell::new("k", o).compile_key().to_string();
        // Every compile field reaches the compile key.
        let mut all = vec![key(base())];
        all.extend(compile_variants().into_iter().map(key));
        let distinct: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(
            distinct.len(),
            all.len(),
            "some compile knob missed the compile key"
        );
        // No machine knob does: cells that differ only in machine share
        // it, for every knob and every registry machine.
        let machines = machine_variants().into_iter().chain(
            bsched_sim::MachineSpec::registry()
                .iter()
                .map(|m| bsched_sim::MachineSpec::named(m.name).unwrap().config()),
        );
        for opts in compile_variants() {
            let plain = ExperimentCell::new("k", opts);
            for m in machines.clone() {
                let cell = ExperimentCell::new("k", opts.with_sim(m));
                assert_eq!(cell.compile_key(), plain.compile_key());
                assert!(cell.canonical_key().starts_with(cell.compile_key()));
            }
        }
    }

    #[test]
    fn kernel_reaches_the_key_and_labels_cannot_alias() {
        let a = ExperimentCell::new("tomcatv", base());
        let b = ExperimentCell::new("su2cor", base());
        assert_ne!(a, b);
        // Same display label, different ablation knob: keys differ.
        let c = ExperimentCell::new("tomcatv", base().with_weight_cap(10));
        assert_eq!(a.options().label(), c.options().label());
        assert_ne!(a, c);
    }

    #[test]
    fn key_is_version_stamped() {
        let a = ExperimentCell::new("k", base());
        assert!(a
            .canonical_key()
            .starts_with(&format!("v{CACHE_SCHEMA_VERSION};")));
    }

    #[test]
    fn ordering_is_stable_and_total() {
        let mut cells = [
            ExperimentCell::new("b", base()),
            ExperimentCell::new("a", base().with_unroll(4)),
            ExperimentCell::new("a", base()),
        ];
        cells.sort();
        let keys: Vec<&str> = cells.iter().map(ExperimentCell::canonical_key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
