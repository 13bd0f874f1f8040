//! The multi-core machine: cores, shared last-level cache, memory bus.
//!
//! All timed operations go through [`Machine`]: data accesses, instruction
//! fetches and branches. Each returns (and internally accounts) the cycle
//! cost on the issuing core, walking TLB → L1 → L2 → LLC → DRAM with the
//! platform's latency table, dirty write-backs, prefetcher interaction and
//! cross-core bus contention.
//!
//! # The sweep fast path
//!
//! Mastik-style prime&probe walks thousands of fixed addresses per sample.
//! Re-deriving every cache set index, tag and slice from the physical
//! address on each of those accesses is pure waste: the addresses never
//! change. A [`SweepPlan`] precomputes the per-line geometry once
//! ([`Machine::plan_sweep`]) and [`Machine::access_batch`] walks the
//! hierarchy over the plan in one tight loop. The scalar path
//! ([`Machine::data_access`] / [`Machine::insn_fetch`]) builds a one-line
//! plan on the fly and funnels into the *same* per-access function
//! ([`Machine::access_planned`]), so batch and scalar are bit-identical by
//! construction — a contract the workspace property tests pin down.

use crate::cache::{phys_set, Cache, Replacement};
use crate::corestate::CoreState;
use crate::noise::NoiseRng;
use crate::params::{CacheGeom, PlatformConfig};
use crate::tlb::TlbLevel;
use crate::{Asid, PAddr, VAddr};

/// Extra latency charged to a demand miss per resumed stale prefetch
/// stream (the §5.3.2 residual-channel mechanism).
const PREFETCH_RESUME_COST: u64 = 12;

/// Window (in cycles) within which another core's DRAM access contends.
const BUS_WINDOW: u64 = 400;

/// Maximum number of contending accesses counted per DRAM access.
const BUS_MAX_CONTENDERS: u64 = 6;

/// Per-core ring depth of recent DRAM-access stamps. A core advances by at
/// least the DRAM latency (≫ `BUS_WINDOW` / `BUS_RING` cycles) per DRAM
/// access, so at most a handful of its stamps can ever fall inside one
/// contention window; 8 is comfortably above that bound for every
/// registered platform (checked by `PlatformConfig::validate`-adjacent
/// latency invariants: `lat.dram ≥ 60` everywhere).
const BUS_RING: usize = 8;

/// Sentinel for an empty bus-ring slot.
const BUS_EMPTY: u64 = u64::MAX;

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 hit.
    L1,
    /// Private L2 hit (x86).
    L2,
    /// Shared LLC hit.
    Llc,
    /// DRAM access.
    Dram,
}

/// The slice-selection hash: XOR-fold of the line address (a simplified
/// Intel LLC slice hash). Public so attackers can reconstruct slice
/// placement during their (untimed) eviction-set profiling phase, as the
/// reverse-engineered hash of Yarom et al. (2015) allows on real hardware.
#[must_use]
pub fn slice_index(line_addr: u64, slices: u64) -> usize {
    if slices <= 1 {
        return 0;
    }
    let h = line_addr ^ (line_addr >> 7) ^ (line_addr >> 13) ^ (line_addr >> 19);
    (h % slices) as usize
}

/// Shift/mask indexing for one power-of-two cache geometry, precomputed so
/// the hot paths (prefetch fills, back-invalidation, scalar planning) never
/// divide. `PlatformConfig::validate` pins the power-of-two invariants this
/// relies on.
#[derive(Debug, Clone, Copy)]
struct GeomIdx {
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
}

impl GeomIdx {
    fn new(g: CacheGeom) -> Self {
        let sets = g.sets();
        debug_assert!(g.line.is_power_of_two() && sets.is_power_of_two());
        let line_shift = g.line.trailing_zeros();
        GeomIdx {
            line_shift,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    #[inline]
    fn set(&self, pa: u64) -> usize {
        ((pa >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, pa: u64) -> u64 {
        pa >> self.tag_shift
    }
}

/// Precomputed geometry of one access: everything a hierarchy walk derives
/// from the physical address, computed once per probe line instead of once
/// per access.
#[derive(Debug, Clone, Copy)]
pub struct PlannedLine {
    /// The physical address (the frame number and canonical line address
    /// are single shifts away and derived at access time, keeping the
    /// plan row compact — the plan itself is streamed on every sweep).
    pub pa: u64,
    /// L1 tag.
    l1_tag: u64,
    /// Private-L2 tag.
    l2_tag: u64,
    /// Shared-slice tag.
    sh_tag: u64,
    /// L1 set index (for the I- or D-side geometry the plan was built for).
    l1_set: u32,
    /// Private-L2 set index (unused on platforms without a private L2).
    l2_set: u32,
    /// Shared-cache slice.
    slice: u16,
    /// Set index within the shared slice.
    sh_set: u32,
}

/// A precomputed probe sweep: per-line geometry tuples for a fixed list of
/// physical addresses, valid for one machine configuration and one access
/// side (instruction vs data — their L1 geometries may differ).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    insn: bool,
    lines: Vec<PlannedLine>,
}

impl SweepPlan {
    /// Whether the plan was built for instruction fetches.
    #[must_use]
    pub fn is_insn(&self) -> bool {
        self.insn
    }

    /// The planned lines.
    #[must_use]
    pub fn lines(&self) -> &[PlannedLine] {
        &self.lines
    }

    /// Number of planned lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Scratch outputs of a batch sweep; both fields optional so callers pay
/// only for what they read.
#[derive(Debug, Default)]
pub struct BatchOut<'a> {
    /// Per-line cycle costs, appended in plan order.
    pub costs: Option<&'a mut Vec<u64>>,
    /// Per-line hit levels, appended in plan order.
    pub levels: Option<&'a mut Vec<HitLevel>>,
}

/// The simulated machine.
///
/// `Clone` snapshots the entire micro-architectural state (caches, TLBs,
/// predictors, noise-stream position, bus rings); a clone resumed from the
/// same point produces a bit-identical future, which is what makes
/// `tp-core`'s replay snapshots sound.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Platform configuration.
    pub cfg: PlatformConfig,
    /// Per-core state.
    pub cores: Vec<CoreState>,
    /// Shared last-level cache slices (the LLC on x86, the L2 on Arm).
    shared: Vec<Cache>,
    rng: NoiseRng,
    /// Shift/mask indexers for the fixed geometries (no divisions on the
    /// fill/invalidate hot paths).
    idx_l1d: GeomIdx,
    idx_l1i: GeomIdx,
    idx_l2: GeomIdx,
    idx_sh: GeomIdx,
    /// `slices - 1` when the slice count is a power of two (mask dispatch,
    /// matching [`slice_index`] bit-for-bit); `None` falls back to it.
    slice_mask: Option<u64>,
    /// Memoised sweep plans for the kernel's fixed buffers, keyed by
    /// `(buffer base, insn side, lines)` (a handful per machine: the two
    /// flush buffers of each kernel image plus the shared kernel data).
    /// The manual x86 L1 flushes and the shared-data prefetch walk these
    /// buffers on every domain switch.
    buffer_plans: Vec<(u64, bool, u64, SweepPlan)>,
    /// Per-core rings of recent DRAM-access cycle stamps (bus contention).
    bus: Vec<[u64; BUS_RING]>,
    /// Next write position per bus ring.
    bus_pos: Vec<u8>,
    dram_accesses: u64,
}

impl Machine {
    /// Build a machine with pristine state and a deterministic noise-stream
    /// seed.
    #[must_use]
    pub fn new(cfg: PlatformConfig, seed: u64) -> Self {
        let slices = if cfg.llc.is_some() { cfg.llc_slices } else { 1 };
        let slice_geom = match cfg.llc {
            Some(llc) => crate::params::CacheGeom {
                size: llc.size / u64::from(slices),
                ways: llc.ways,
                line: llc.line,
            },
            None => cfg.l2,
        };
        let shared: Vec<Cache> = (0..slices)
            .map(|_| Cache::new("llc", slice_geom, Replacement::Lru))
            .collect();
        let cores: Vec<CoreState> = (0..cfg.cores).map(|i| CoreState::new(i, &cfg)).collect();
        let n = cores.len();
        let n_slices = shared.len() as u64;
        Machine {
            cfg,
            cores,
            rng: NoiseRng::seeded(seed),
            idx_l1d: GeomIdx::new(cfg.l1d),
            idx_l1i: GeomIdx::new(cfg.l1i),
            idx_l2: GeomIdx::new(cfg.l2),
            idx_sh: GeomIdx::new(slice_geom),
            slice_mask: n_slices.is_power_of_two().then(|| n_slices - 1),
            buffer_plans: Vec::new(),
            shared,
            bus: vec![[BUS_EMPTY; BUS_RING]; n],
            bus_pos: vec![0; n],
            dram_accesses: 0,
        }
    }

    /// The per-slice geometry of the shared cache.
    #[must_use]
    pub fn shared_geom(&self) -> crate::params::CacheGeom {
        self.shared[0].geom()
    }

    /// Which LLC slice a physical address maps to (hash-distributed on
    /// x86, single slice on Arm).
    #[must_use]
    pub fn slice_of(&self, pa: PAddr) -> usize {
        let la = pa.0 >> self.idx_l1d.line_shift;
        match self.slice_mask {
            Some(0) => 0,
            Some(m) => {
                // Bit-identical to `slice_index` for power-of-two counts.
                let h = la ^ (la >> 7) ^ (la >> 13) ^ (la >> 19);
                (h & m) as usize
            }
            None => slice_index(la, self.shared.len() as u64),
        }
    }

    /// The set index within its slice that `pa` maps to in the shared cache.
    #[must_use]
    pub fn shared_set_of(&self, pa: PAddr) -> usize {
        phys_set(self.shared_geom(), pa.0)
    }

    /// Immutable view of a shared-cache slice (tests and diagnostics).
    #[must_use]
    pub fn shared_slice(&self, idx: usize) -> &Cache {
        &self.shared[idx]
    }

    /// Number of shared-cache slices.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.shared.len()
    }

    /// Clean and invalidate one shared-cache slice; returns
    /// `(valid, dirty)` counts. Used by the architected flush operations.
    pub fn flush_shared_slice(&mut self, slice: usize) -> (u64, u64) {
        self.shared[slice].flush_all()
    }

    /// Current cycle counter of `core`.
    #[must_use]
    pub fn cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }

    /// Advance `core`'s cycle counter by `n` (pure compute).
    pub fn advance(&mut self, core: usize, n: u64) {
        self.cores[core].advance(n);
    }

    /// Total DRAM accesses (diagnostics).
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// The machine's deterministic noise stream, for timing jitter that is
    /// conceptually part of the hardware (e.g. cycle-counter read jitter).
    /// Attack input generation must *not* draw from this — it would couple
    /// the inputs to the simulated noise.
    pub fn rng(&mut self) -> &mut NoiseRng {
        &mut self.rng
    }

    /// Charge this core's DRAM access for other-core DRAM accesses inside
    /// the contention window, and record it.
    fn bus_contention(&mut self, core: usize) -> u64 {
        let charge = self.bus_charge(core);
        let pos = usize::from(self.bus_pos[core]);
        self.bus[core][pos] = self.cores[core].cycles;
        self.bus_pos[core] = ((pos + 1) % BUS_RING) as u8;
        charge
    }

    /// The contention charge a DRAM access by `core` would pay now.
    ///
    /// A ring whose newest stamp is empty or older than the window is
    /// skipped whole: a core writes its stamps in cycle order and cycle
    /// counters only advance, so every other stamp in it is older still.
    /// Idle cores (most systems run on core 0 only) thus cost one compare.
    fn bus_charge(&self, core: usize) -> u64 {
        let floor = self.cores[core].cycles.saturating_sub(BUS_WINDOW);
        let mut contenders = 0u64;
        for (c, ring) in self.bus.iter().enumerate() {
            let newest = ring[(usize::from(self.bus_pos[c]) + BUS_RING - 1) % BUS_RING];
            if c == core || newest == BUS_EMPTY || newest < floor {
                continue;
            }
            for &t in ring {
                if t != BUS_EMPTY && t >= floor {
                    contenders += 1;
                }
            }
        }
        contenders.min(BUS_MAX_CONTENDERS) * self.cfg.lat.bus_contend
    }

    /// Back-invalidate a line evicted from the inclusive shared cache from
    /// every core's private caches.
    fn back_invalidate(&mut self, line_addr: u64) {
        let pa = line_addr << self.idx_l1d.line_shift;
        let (d, i, l2i) = (self.idx_l1d, self.idx_l1i, self.idx_l2);
        for core in &mut self.cores {
            core.l1d.invalidate_line(d.set(pa), d.tag(pa));
            core.l1i.invalidate_line(i.set(pa), i.tag(pa));
            if let Some(l2) = &mut core.l2 {
                l2.invalidate_line(l2i.set(pa), l2i.tag(pa));
            }
        }
    }

    /// Fill `pa` into the shared cache without charging latency (prefetch
    /// path). Evictions still back-invalidate.
    fn shared_fill(&mut self, pa: PAddr, write: bool) {
        let slice = self.slice_of(pa);
        let set = self.idx_sh.set(pa.0);
        let tag = self.idx_sh.tag(pa.0);
        let line_addr = pa.0 >> self.idx_sh.line_shift;
        let out = self.shared[slice].access(set, tag, line_addr, write, &mut self.rng);
        if let Some(ev) = out.evicted {
            // The evicted line address is within-slice; reconstruct only for
            // back-invalidation, where the (set, tag) pair per private cache
            // is derived from a canonical address. Slice-local reconstruction
            // is exact because set+tag encode the full line address.
            self.back_invalidate(ev.line_addr);
        }
    }

    /// Precompute the hierarchy geometry of one access.
    #[inline]
    #[must_use]
    pub fn plan_line(&self, insn: bool, pa: PAddr) -> PlannedLine {
        let l1 = if insn { self.idx_l1i } else { self.idx_l1d };
        PlannedLine {
            pa: pa.0,
            l1_tag: l1.tag(pa.0),
            l2_tag: self.idx_l2.tag(pa.0),
            sh_tag: self.idx_sh.tag(pa.0),
            l1_set: l1.set(pa.0) as u32,
            l2_set: self.idx_l2.set(pa.0) as u32,
            slice: self.slice_of(pa) as u16,
            sh_set: self.idx_sh.set(pa.0) as u32,
        }
    }

    /// Precompute a sweep plan for a fixed probe-address list. `insn`
    /// selects the instruction-side L1 geometry.
    #[must_use]
    pub fn plan_sweep(&self, insn: bool, pas: &[PAddr]) -> SweepPlan {
        SweepPlan {
            insn,
            lines: pas.iter().map(|&pa| self.plan_line(insn, pa)).collect(),
        }
    }

    /// A data access: walk the hierarchy, account all costs, return the
    /// cycles consumed. `global` marks a global (kernel) mapping in the TLB.
    pub fn data_access(
        &mut self,
        core: usize,
        asid: Asid,
        va: VAddr,
        pa: PAddr,
        write: bool,
        global: bool,
    ) -> u64 {
        let _ = va; // Physically-indexed model; see corestate docs.
        let ln = self.plan_line(false, pa);
        self.access_planned(core, asid, &ln, write, global, false).0
    }

    /// An instruction fetch at `pa`.
    pub fn insn_fetch(
        &mut self,
        core: usize,
        asid: Asid,
        va: VAddr,
        pa: PAddr,
        global: bool,
    ) -> u64 {
        let _ = va;
        let ln = self.plan_line(true, pa);
        self.access_planned(core, asid, &ln, false, global, true).0
    }

    /// A scalar access that also reports where it was satisfied — the
    /// reference oracle the batch-equivalence property tests compare
    /// against.
    pub fn access_with_level(
        &mut self,
        core: usize,
        asid: Asid,
        pa: PAddr,
        write: bool,
        global: bool,
        insn: bool,
    ) -> (u64, HitLevel) {
        let ln = self.plan_line(insn, pa);
        self.access_planned(core, asid, &ln, write, global, insn)
    }

    /// Run a whole sweep plan as one tight loop; returns the total cycle
    /// cost and optionally records per-line costs/levels into `out`.
    ///
    /// Bit-identical to issuing the same accesses through the scalar path:
    /// both funnel into [`Machine::access_planned`] and consume the noise
    /// stream in the same order.
    pub fn access_batch(
        &mut self,
        core: usize,
        asid: Asid,
        plan: &SweepPlan,
        write: bool,
        global: bool,
        out: &mut BatchOut<'_>,
    ) -> u64 {
        let mut total = 0u64;
        for ln in &plan.lines {
            let (c, lvl) = self.access_planned(core, asid, ln, write, global, plan.insn);
            total += c;
            if let Some(costs) = out.costs.as_deref_mut() {
                costs.push(c);
            }
            if let Some(levels) = out.levels.as_deref_mut() {
                levels.push(lvl);
            }
        }
        total
    }

    /// The hierarchy walk for one planned access: translation timing, L1,
    /// prefetcher hooks, private L2, shared cache, DRAM + bus. Scalar and
    /// batch paths both land here.
    pub fn access_planned(
        &mut self,
        core: usize,
        asid: Asid,
        ln: &PlannedLine,
        write: bool,
        global: bool,
        insn: bool,
    ) -> (u64, HitLevel) {
        let lat = self.cfg.lat;
        let line = self.cfg.line;
        let mut cost = 0u64;

        // 1. Translation timing.
        let vpn = ln.pa / crate::FRAME_SIZE;
        let level = self.cores[core].tlb.translate(asid, vpn, insn, global);
        cost += match level {
            TlbLevel::L1 => 0,
            TlbLevel::L2 => lat.tlb_l2,
            TlbLevel::Walk => lat.tlb_walk,
        };

        // 2. L1.
        let set = ln.l1_set as usize;
        let tag = ln.l1_tag;
        let line_addr = ln.pa >> self.idx_l1d.line_shift;
        let l1_out = {
            let c = &mut self.cores[core];
            let l1 = if insn { &mut c.l1i } else { &mut c.l1d };
            l1.access(set, tag, line_addr, write, &mut self.rng)
        };
        cost += lat.l1_hit;
        if l1_out.hit {
            self.cores[core].advance(cost);
            return (cost, HitLevel::L1);
        }
        if l1_out.writeback {
            cost += lat.writeback;
        }

        // The instruction prefetcher sits at the L1-I (next-line fetch).
        // The targets live in a small inline buffer — this path runs on
        // every miss and must not allocate.
        let mut prefetch_fills = crate::prefetch::PrefetchLines::default();
        if insn {
            let (pf, resumed) = self.cores[core].ipf.on_fetch_miss(line_addr);
            cost += resumed * PREFETCH_RESUME_COST;
            if let Some(l) = pf {
                prefetch_fills.push(l);
            }
        }

        // 3. Private L2 (x86).
        let mut l2_hit = false;
        if self.cores[core].l2.is_some() {
            let out = {
                let c = &mut self.cores[core];
                c.l2.as_mut().unwrap().access(
                    ln.l2_set as usize,
                    ln.l2_tag,
                    line_addr,
                    write,
                    &mut self.rng,
                )
            };
            cost += lat.l2_hit;
            if out.writeback {
                cost += lat.writeback;
            }
            l2_hit = out.hit;
        }

        // The stream data prefetcher sits at the L2, like Intel's
        // streamer: it observes (and resumes stale streams against) demand
        // misses that leave the private L2, not every L1 miss — an
        // L2-resident sweep neither trains nor re-fills.
        if !insn && !l2_hit {
            let (pf, resumed) = self.cores[core].dpf.on_demand_miss(ln.pa, line);
            cost += resumed * PREFETCH_RESUME_COST;
            prefetch_fills = pf;
        }

        // 4. Shared cache.
        let mut hit_level = HitLevel::L2;
        if !l2_hit {
            let out = self.shared[ln.slice as usize].access(
                ln.sh_set as usize,
                ln.sh_tag,
                line_addr,
                write,
                &mut self.rng,
            );
            cost += if self.cores[core].l2.is_some() {
                lat.llc_hit
            } else {
                lat.l2_hit
            };
            if out.writeback {
                cost += lat.writeback;
            }
            if let Some(ev) = out.evicted {
                self.back_invalidate(ev.line_addr);
            }
            hit_level = if out.hit {
                HitLevel::Llc
            } else {
                HitLevel::Dram
            };
        }

        // 5. DRAM with bus contention and a little jitter.
        if hit_level == HitLevel::Dram {
            self.dram_accesses += 1;
            cost += lat.dram;
            cost += self.bus_contention(core);
            cost += self.rng.below(6);
        }

        // Prefetch fills go into L2 + shared, free of charge to this access.
        for &la in &prefetch_fills {
            let fpa = PAddr(la * line);
            if let Some(l2) = &mut self.cores[core].l2 {
                let s = self.idx_l2.set(fpa.0);
                let t = self.idx_l2.tag(fpa.0);
                l2.access(s, t, la, false, &mut self.rng);
            }
            self.shared_fill(fpa, false);
        }

        self.cores[core].advance(cost);
        (cost, hit_level)
    }

    /// The memoised sweep plan covering the `lines`-line buffer at
    /// `buf_pa` (built on first use). Kernel buffers are fixed per kernel
    /// image, so the cache stays tiny.
    pub(crate) fn buffer_plan(&mut self, buf_pa: PAddr, insn: bool, lines: u64) -> usize {
        if let Some(i) = self
            .buffer_plans
            .iter()
            .position(|(b, ins, n, _)| *b == buf_pa.0 && *ins == insn && *n == lines)
        {
            return i;
        }
        let line = self.cfg.line;
        let pas: Vec<PAddr> = (0..lines).map(|i| PAddr(buf_pa.0 + i * line)).collect();
        let plan = self.plan_sweep(insn, &pas);
        self.buffer_plans.push((buf_pa.0, insn, lines, plan));
        self.buffer_plans.len() - 1
    }

    /// Temporarily take a memoised buffer plan out of the machine (so the
    /// caller can run it against `&mut self`); restore with
    /// [`Machine::restore_buffer_plan`].
    pub(crate) fn take_buffer_plan(&mut self, idx: usize) -> SweepPlan {
        std::mem::replace(
            &mut self.buffer_plans[idx].3,
            SweepPlan {
                insn: false,
                lines: Vec::new(),
            },
        )
    }

    /// Put a plan taken with [`Machine::take_buffer_plan`] back.
    pub(crate) fn restore_buffer_plan(&mut self, idx: usize, plan: SweepPlan) {
        self.buffer_plans[idx].3 = plan;
    }

    /// Load every line of the contiguous `lines`-line buffer at `buf_pa`,
    /// in order, through a memoised sweep plan; returns the total cycle
    /// cost. Bit-identical to the same [`Machine::data_access`] reads one
    /// by one — the path for fixed kernel buffers walked on every domain
    /// switch.
    pub fn load_buffer(
        &mut self,
        core: usize,
        asid: Asid,
        buf_pa: PAddr,
        lines: u64,
        global: bool,
    ) -> u64 {
        let idx = self.buffer_plan(buf_pa, false, lines);
        let plan = self.take_buffer_plan(idx);
        let total = self.access_batch(core, asid, &plan, false, global, &mut BatchOut::default());
        self.restore_buffer_plan(idx, plan);
        total
    }

    /// Execute a branch instruction at `pc`; returns the cycle cost.
    pub fn branch(
        &mut self,
        core: usize,
        pc: VAddr,
        target: VAddr,
        taken: bool,
        conditional: bool,
    ) -> u64 {
        let lat = self.cfg.lat;
        let mut cost = 1;
        let c = &mut self.cores[core];
        let btb_hit = c.btb.access(pc.0, target.0);
        if taken && !btb_hit {
            cost += lat.btb_miss;
        }
        if conditional {
            let correct = c.bhb.predict_update(pc.0, taken);
            if !correct {
                cost += lat.mispredict;
            }
        }
        c.advance(cost);
        cost
    }

    /// Tell prefetchers a security-domain switch happened on `core` (stale
    /// stream state remains live; see [`crate::prefetch`]).
    pub fn note_domain_switch(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.dpf.note_domain_switch();
        c.ipf.note_domain_switch();
    }
}

#[cfg(test)]
impl Machine {
    /// The contention charge [`Machine::bus_charge`] must match, scanning
    /// every stamp of every other core's ring.
    fn bus_charge_reference(&self, core: usize) -> u64 {
        let floor = self.cores[core].cycles.saturating_sub(BUS_WINDOW);
        let contenders = (0..self.bus.len())
            .filter(|&c| c != core)
            .flat_map(|c| self.bus[c])
            .filter(|&t| t != BUS_EMPTY && t >= floor)
            .count() as u64;
        contenders.min(BUS_MAX_CONTENDERS) * self.cfg.lat.bus_contend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Platform;
    use proptest::prelude::*;

    fn pa(x: u64) -> PAddr {
        PAddr(x)
    }
    fn va(x: u64) -> VAddr {
        VAddr(x)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let c1 = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        let c2 = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        assert!(
            c1 > c2,
            "cold miss ({c1}) must cost more than L1 hit ({c2})"
        );
        assert_eq!(c2, m.cfg.lat.l1_hit);
    }

    #[test]
    fn cycle_counter_advances() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let c = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        assert_eq!(m.cycles(0), c);
        m.advance(0, 10);
        assert_eq!(m.cycles(0), c + 10);
    }

    #[test]
    fn llc_visible_across_cores() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Core 0 pulls a line into the (shared, inclusive) LLC.
        m.data_access(0, Asid(1), va(0x2000), pa(0x2000), false, false);
        // Core 1 misses its private caches but hits the LLC: cheaper than
        // core 1 pulling an uncached line from DRAM.
        let llc_hit = m.data_access(1, Asid(1), va(0x2000), pa(0x2000), false, false);
        let dram = m.data_access(1, Asid(1), va(0x8000_0000), pa(0x8000_0000), false, false);
        assert!(llc_hit < dram, "LLC hit {llc_hit} vs DRAM {dram}");
    }

    #[test]
    fn arm_l2_is_shared() {
        let mut m = Machine::new(Platform::Sabre.config(), 1);
        m.data_access(0, Asid(1), va(0x3000), pa(0x3000), false, false);
        let shared_hit = m.data_access(1, Asid(1), va(0x3000), pa(0x3000), false, false);
        let dram = m.data_access(1, Asid(1), va(0x9000_0000), pa(0x9000_0000), false, false);
        assert!(shared_hit < dram);
    }

    #[test]
    fn back_invalidation_enforces_inclusion() {
        let cfg = Platform::Sabre.config(); // single slice, no private L2
        let sets = cfg.l2.sets();
        let ways = cfg.l2.ways as u64;
        let mut m = Machine::new(cfg, 1);
        // Fill one shared set with ways+1 conflicting lines; the first must
        // be evicted and back-invalidated from core 0's L1.
        let stride = sets * cfg.line;
        for k in 0..=ways {
            let a = 0x10_0000 + k * stride;
            m.data_access(0, Asid(1), va(a), pa(a), false, false);
        }
        // Re-access of the first line must miss L1 (it was back-invalidated)
        // and go to DRAM.
        let c = m.data_access(0, Asid(1), va(0x10_0000), pa(0x10_0000), false, false);
        assert!(c >= m.cfg.lat.dram, "expected DRAM-level cost, got {c}");
    }

    #[test]
    fn slice_hash_distributes() {
        let m = Machine::new(Platform::Haswell.config(), 1);
        let mut counts = [0usize; 4];
        for i in 0..4096u64 {
            counts[m.slice_of(pa(i * 64))] += 1;
        }
        for &c in &counts {
            assert!(c > 512, "slice distribution too skewed: {counts:?}");
        }
    }

    #[test]
    fn bus_contention_charges_cross_core_dram() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Uncontended DRAM access.
        let base = m.data_access(0, Asid(1), va(0x100_0000), pa(0x100_0000), false, false);
        // Storm of DRAM accesses from core 1 at similar cycle stamps.
        for k in 0..8u64 {
            let a = 0x200_0000 + k * 4096 * 64;
            m.data_access(1, Asid(1), va(a), pa(a), false, false);
        }
        // Align core 0's clock with core 1's so the window overlaps.
        let lag = m.cycles(1).saturating_sub(m.cycles(0));
        m.advance(0, lag);
        let contended = m.data_access(0, Asid(1), va(0x300_0000), pa(0x300_0000), false, false);
        assert!(
            contended > base + m.cfg.lat.bus_contend / 2,
            "contended {contended} vs base {base}"
        );
    }

    #[test]
    fn bus_contention_window_expires() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        for k in 0..4u64 {
            let a = 0x200_0000 + k * 4096 * 64;
            m.data_access(1, Asid(1), va(a), pa(a), false, false);
        }
        // Far beyond the window: the stale stamps must not contend.
        m.advance(0, m.cycles(1) + 100 * BUS_WINDOW);
        let quiet = m.data_access(0, Asid(1), va(0x300_0000), pa(0x300_0000), false, false);
        assert!(
            quiet < m.cfg.lat.dram + m.cfg.lat.tlb_walk + m.cfg.lat.l1_hit + 200,
            "stale bus stamps still charged: {quiet}"
        );
    }

    #[test]
    fn load_buffer_matches_scalar_reads_for_every_length() {
        // The same base swept at two lengths must use two plans: a memo
        // keyed on the base alone would replay the first length.
        let cfg = Platform::Haswell.config();
        let mut mb = Machine::new(cfg, 5);
        let mut ms = Machine::new(cfg, 5);
        let base = PAddr(0x80_0000);
        for lines in [4u64, 64, 4, 200] {
            let total = mb.load_buffer(0, Asid::KERNEL, base, lines, true);
            let mut want = 0;
            for i in 0..lines {
                let pa = PAddr(base.0 + i * cfg.line);
                want += ms.data_access(0, Asid::KERNEL, va(pa.0), pa, false, true);
            }
            assert_eq!(total, want, "{lines} lines");
            assert_eq!(mb.cycles(0), ms.cycles(0), "{lines} lines");
        }
    }

    proptest! {
        /// Skipping idle and stale rings never changes a bus charge: 2–8
        /// cores issue DRAM-missing accesses (every line is fresh) with
        /// random advances in between, and before each access the charge
        /// equals a full scan of every ring.
        #[test]
        fn bus_charge_matches_full_ring_scan(
            cores in 2usize..=8,
            ops in proptest::collection::vec((0usize..8, 0u64..1_200, any::<bool>()), 1..200),
        ) {
            let mut cfg = Platform::Haswell.config();
            cfg.cores = cores;
            let mut m = Machine::new(cfg, 7);
            for (i, (core, gap, access)) in ops.into_iter().enumerate() {
                let core = core % cores;
                m.advance(core, gap);
                if access {
                    prop_assert_eq!(m.bus_charge(core), m.bus_charge_reference(core));
                    // One fresh line per access, a MiB apart: never cached,
                    // never prefetched.
                    let pa = PAddr((i as u64 + 1) << 20);
                    let (_, level) = m.access_with_level(core, Asid(1), pa, false, false, false);
                    prop_assert_eq!(level, HitLevel::Dram);
                }
            }
        }
    }

    #[test]
    fn branch_costs() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Unconditional taken branch, cold BTB: pays the BTB miss.
        let cold = m.branch(0, va(0x400), va(0x800), true, false);
        let warm = m.branch(0, va(0x400), va(0x800), true, false);
        assert!(cold > warm);
        assert_eq!(warm, 1);
    }

    #[test]
    fn conditional_branch_learns() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let mut last = 0;
        // Warm-up must exceed the 16-bit global history length plus counter
        // training.
        for _ in 0..24 {
            last = m.branch(0, va(0x400), va(0x800), true, true);
        }
        assert_eq!(last, 1, "trained branch must be predicted");
    }

    #[test]
    fn sequential_reads_train_prefetcher() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // March through a page sequentially twice; second pass of the next
        // lines should hit prefetched data rather than DRAM.
        for l in 0..16u64 {
            let a = 0x40_0000 + l * 64;
            m.data_access(0, Asid(1), va(a), pa(a), false, false);
        }
        assert!(m.cores[0].dpf.issued() > 0, "prefetcher should have fired");
    }

    #[test]
    fn batch_equals_scalar_on_a_probe_sweep() {
        // Two identical machines, one swept scalar, one batched: totals,
        // per-line costs and hit levels must agree bit-for-bit.
        for p in Platform::ALL {
            let cfg = p.config();
            let mut ms = Machine::new(cfg, 99);
            let mut mb = Machine::new(cfg, 99);
            let pas: Vec<PAddr> = (0..64).map(|i| PAddr(0x40_0000 + i * cfg.line)).collect();
            let plan = mb.plan_sweep(false, &pas);
            for round in 0..3 {
                let write = round == 1;
                let mut costs = Vec::new();
                let mut levels = Vec::new();
                let total_b = mb.access_batch(
                    0,
                    Asid(1),
                    &plan,
                    write,
                    false,
                    &mut BatchOut {
                        costs: Some(&mut costs),
                        levels: Some(&mut levels),
                    },
                );
                let mut total_s = 0;
                for (i, &pa) in pas.iter().enumerate() {
                    let (c, lvl) = ms.access_with_level(0, Asid(1), pa, write, false, false);
                    total_s += c;
                    assert_eq!(c, costs[i], "{}: line {i} cost", p.key());
                    assert_eq!(lvl, levels[i], "{}: line {i} level", p.key());
                }
                assert_eq!(total_s, total_b, "{}: round {round}", p.key());
                assert_eq!(ms.cycles(0), mb.cycles(0), "{}", p.key());
            }
        }
    }
}
