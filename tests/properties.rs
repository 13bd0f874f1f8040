//! Property-based tests (proptest) on the core data structures and
//! estimators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use time_protection::analysis::{mutual_information, mutual_information_naive, Dataset, MiContext};
use time_protection::attacks::elgamal::{key_bits, modexp_with_hook, BigUint, ExpOp};
use tp_sim::cache::{phys_set, phys_tag, Cache, Replacement};
use tp_sim::{CacheGeom, ColorSet, NoiseRng};

proptest! {
    /// A cache never holds more valid lines than its capacity, never more
    /// dirty than valid, and a line just accessed is always resident.
    #[test]
    fn cache_capacity_and_residency_invariants(
        accesses in proptest::collection::vec((0u64..4096, any::<bool>()), 1..300),
        seed in any::<u64>(),
    ) {
        let geom = CacheGeom { size: 4 * 1024, ways: 4, line: 64 };
        let mut c = Cache::new("p", geom, Replacement::Lru);
        let mut rng = NoiseRng::seeded(seed);
        for (line_idx, write) in accesses {
            let pa = line_idx * 64;
            let set = phys_set(geom, pa);
            let tag = phys_tag(geom, pa);
            c.access(set, tag, line_idx, write, &mut rng);
            prop_assert!(c.peek(set, tag), "just-accessed line must be resident");
            prop_assert!(c.valid_lines() <= geom.lines());
            prop_assert!(c.dirty_lines() <= c.valid_lines());
            prop_assert!(c.valid_in_set(set) <= u64::from(geom.ways));
        }
        let (valid, dirty) = c.flush_all();
        prop_assert!(dirty <= valid);
        prop_assert_eq!(c.valid_lines(), 0);
    }

    /// Flushing is complete: after flush_all, no previously accessed line
    /// remains.
    #[test]
    fn flush_is_complete(lines in proptest::collection::vec(0u64..1024, 1..100)) {
        let geom = CacheGeom { size: 8 * 1024, ways: 8, line: 64 };
        let mut c = Cache::new("f", geom, Replacement::Lru);
        let mut rng = NoiseRng::seeded(1);
        for &l in &lines {
            c.access(phys_set(geom, l * 64), phys_tag(geom, l * 64), l, true, &mut rng);
        }
        c.flush_all();
        for &l in &lines {
            prop_assert!(!c.peek(phys_set(geom, l * 64), phys_tag(geom, l * 64)));
        }
    }

    /// ColorSet algebra: union/minus/intersects are consistent.
    #[test]
    fn colorset_algebra(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let (sa, sb) = (ColorSet(a), ColorSet(b));
        prop_assert_eq!(sa.union(sb).0, a | b);
        prop_assert_eq!(sa.minus(sb).0, a & !b);
        prop_assert_eq!(sa.intersects(sb), a & b != 0);
        prop_assert!(!sa.minus(sb).intersects(sb));
        prop_assert_eq!(sa.union(sb).count(), (a | b).count_ones());
    }

    /// MI is non-negative and bounded by the input entropy.
    #[test]
    fn mi_bounds(
        pairs in proptest::collection::vec((0usize..4, -1000.0f64..1000.0), 24..400),
    ) {
        let mut d = Dataset::new(4);
        for (s, o) in pairs {
            d.push(s, o);
        }
        let mi = mutual_information(&d);
        prop_assert!(mi.bits >= 0.0);
        prop_assert!(mi.bits <= 2.0 + 0.2, "MI {} exceeds log2(4)", mi.bits);
    }

    /// The optimised MI path (banded-convolution KDE over a shared
    /// context) agrees with the naive reference oracle to within 1e-9
    /// bits on arbitrary datasets — the correctness contract of the
    /// shuffle-test fast path.
    #[test]
    fn fast_mi_matches_naive_oracle(
        pairs in proptest::collection::vec((0usize..6, -500.0f64..500.0), 12..300),
    ) {
        let mut d = Dataset::new(6);
        for (s, o) in pairs {
            d.push(s, o);
        }
        let fast = mutual_information(&d).bits;
        let naive = mutual_information_naive(&d).bits;
        prop_assert!(
            (fast - naive).abs() < 1e-9,
            "fast {fast} vs naive {naive} (n = {})", d.len()
        );
    }

    /// The shared-context shuffled estimate agrees with re-estimating the
    /// permuted dataset from scratch with the naive oracle.
    #[test]
    fn fast_shuffled_mi_matches_naive_oracle(
        pairs in proptest::collection::vec((0usize..4, -100.0f64..100.0), 16..200),
        rot in 1usize..13,
    ) {
        let mut d = Dataset::new(4);
        for (s, o) in pairs {
            d.push(s, o);
        }
        // A rotation is always a permutation, whatever the length.
        let n = d.len();
        let perm: Vec<usize> = (0..n).map(|j| (j + rot) % n).collect();
        let ctx = MiContext::new(&d);
        let fast = ctx.mi_shuffled(&perm);
        let naive = mutual_information_naive(&d.permuted(&perm)).bits;
        prop_assert!(
            (fast - naive).abs() < 1e-9,
            "fast {fast} vs naive {naive} (n = {n}, rot = {rot})"
        );
    }

    /// MI of outputs independent of inputs stays near zero.
    #[test]
    fn mi_of_constant_outputs_is_zero(
        symbols in proptest::collection::vec(0usize..4, 40..200),
        value in -100.0f64..100.0,
    ) {
        let mut d = Dataset::new(4);
        for s in symbols {
            d.push(s, value);
        }
        let mi = mutual_information(&d);
        prop_assert!(mi.bits < 0.02, "constant outputs gave MI {}", mi.bits);
    }

    /// Multi-precision arithmetic agrees with u128 on small operands.
    #[test]
    fn bignum_matches_u128(a in 1u64.., b in 1u64.., m in 2u64..) {
        let (ba, bb, bm) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(m));
        let expect = (u128::from(a) * u128::from(b)) % u128::from(m);
        let got = ba.modmul(&bb, &bm);
        prop_assert!(got.limbs().len() <= 2);
        let got128 = got.limbs().iter().rev().fold(0u128, |acc, &l| (acc << 64) | u128::from(l));
        prop_assert_eq!(got128, expect);
    }

    /// The square/multiply operation sequence exactly encodes the exponent
    /// bits: squares = bits(exp)-1, multiplies = ones below the MSB.
    #[test]
    fn modexp_hook_sequence_encodes_exponent(exp in 2u64.., base in 2u64.., m in 3u64..) {
        let e = BigUint::from_u64(exp);
        let mut squares = 0u32;
        let mut muls = 0u32;
        let _ = modexp_with_hook(
            &BigUint::from_u64(base),
            &e,
            &BigUint::from_u64(m),
            |op| match op {
                ExpOp::Square => squares += 1,
                ExpOp::Multiply => muls += 1,
            },
        );
        let bits = key_bits(&e);
        prop_assert_eq!(squares as usize, bits.len());
        prop_assert_eq!(muls as usize, bits.iter().filter(|&&b| b == 1).count());
    }

    /// Frame colours partition the frame space evenly.
    #[test]
    fn colours_partition_frames(n_colors in 1u64..64, frames in 1u64..10_000) {
        let mut counts = vec![0u64; n_colors as usize];
        for f in 0..frames {
            counts[tp_sim::color_of_frame(f, n_colors) as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "colour imbalance: {counts:?}");
    }
}

proptest! {
    /// The batch sweep is bit-identical to the scalar access path: same
    /// per-line cycle costs, same hit levels, same machine state — for
    /// random address mixes, read and write rounds, with the platform
    /// itself drawn as a strategy over the whole registry. This is the
    /// correctness contract that lets the probe machinery run through
    /// `Machine::access_batch`.
    #[test]
    fn batch_sweep_matches_scalar_accesses(
        p in proptest::sample::select(tp_sim::Platform::ALL),
        line_idx in proptest::collection::vec(0u64..100_000, 8..80),
        writes in proptest::collection::vec(any::<bool>(), 3),
        seed in any::<u64>(),
    ) {
        use tp_sim::{Asid, BatchOut, Machine, PAddr, SweepPlan};
        let cfg = p.config();
        let mut ms = Machine::new(cfg, seed);
        let mut mb = Machine::new(cfg, seed);
        let pas: Vec<PAddr> = line_idx.iter().map(|&i| PAddr(0x40_0000 + i * cfg.line)).collect();
        let plan: SweepPlan = mb.plan_sweep(false, &pas);
        for &write in &writes {
            let mut costs = Vec::new();
            let mut levels = Vec::new();
            let total_b = mb.access_batch(
                0,
                Asid(1),
                &plan,
                write,
                false,
                &mut BatchOut { costs: Some(&mut costs), levels: Some(&mut levels) },
            );
            let mut total_s = 0u64;
            for (i, &pa) in pas.iter().enumerate() {
                let (c, lvl) = ms.access_with_level(0, Asid(1), pa, write, false, false);
                total_s += c;
                prop_assert_eq!(c, costs[i], "{}: line {} cost", p.key(), i);
                prop_assert_eq!(lvl, levels[i], "{}: line {} level", p.key(), i);
            }
            prop_assert_eq!(total_s, total_b, "{}", p.key());
            prop_assert_eq!(ms.cycles(0), mb.cycles(0), "{}", p.key());
        }
    }

    /// The SplitMix noise stream is counter-based: the i-th value is a
    /// pure function of (seed, i), so fanning the index range out over any
    /// number of rayon workers reproduces the sequential stream exactly.
    /// This is the property that makes simulator noise independent of
    /// `TP_THREADS`.
    #[test]
    fn noise_stream_is_position_determined(seed in any::<u64>()) {
        use tp_sim::NoiseRng;
        let mut rng = NoiseRng::seeded(seed);
        let sequential: Vec<u64> = (0..256).map(|_| rng.next_u64()).collect();
        // Recompute out of order via the closed form, in parallel chunks.
        let chunks: Vec<usize> = (0..8).collect();
        let parallel: Vec<Vec<u64>> = rayon::par_map(&chunks, |&c| {
            (0..32).map(|i| tp_sim::noise::nth(seed, (c * 32 + i) as u64)).collect()
        });
        let flat: Vec<u64> = parallel.into_iter().flatten().collect();
        prop_assert_eq!(sequential, flat);
    }
}

/// End-to-end batch-vs-scalar equivalence through the engine: a probe
/// buffer swept with the batched `ProbeBuf::probe`/`probe_exec` in one
/// system produces bit-identical cycle totals to the scalar
/// line-at-a-time oracle in an identically-seeded twin system.
#[test]
fn engine_probe_batch_matches_scalar_oracle() {
    use parking_lot::Mutex;
    use std::sync::Arc;
    use time_protection::attacks::probe::l1_probe;
    use tp_core::{ProtectionConfig, SystemBuilder, UserEnv};

    for platform in tp_sim::Platform::ALL {
        let run = |batch: bool| -> Vec<u64> {
            let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let out2 = Arc::clone(&out);
            let mut b = SystemBuilder::new(platform, ProtectionConfig::raw())
                .seed(0xBA7C)
                .max_cycles(400_000_000);
            let d = b.domain(None);
            b.spawn(d, 0, 100, move |env: &mut UserEnv| {
                let dbuf = l1_probe(env, env.platform().l1d);
                let ibuf = l1_probe(env, env.platform().l1i);
                let mut totals = Vec::new();
                for round in 0..3 {
                    if batch {
                        totals.push(dbuf.probe(env));
                        totals.push(dbuf.probe_prefix(env, 100 + round));
                        totals.push(dbuf.probe_write(env));
                        totals.push(ibuf.probe_exec(env));
                    } else {
                        totals.push(dbuf.probe_scalar(env));
                        totals.push(
                            dbuf.lines[..100 + round]
                                .iter()
                                .map(|&va| env.load(va))
                                .sum(),
                        );
                        totals.push(dbuf.probe_write_scalar(env));
                        totals.push(ibuf.probe_exec_scalar(env));
                    }
                }
                *out2.lock() = totals;
            });
            let _ = b.run();
            let v = out.lock().clone();
            v
        };
        let batched = run(true);
        let scalar = run(false);
        assert_eq!(
            batched.len(),
            12,
            "{}: program did not finish",
            platform.key()
        );
        assert_eq!(batched, scalar, "{}", platform.key());
    }
}

/// The shuffle test's false-positive rate is controlled: channels built
/// from pure noise rarely report leaks.
#[test]
fn shuffle_test_controls_false_positives() {
    use rand::Rng;
    let mut leaks = 0;
    let trials = 12;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(900 + t);
        let mut d = Dataset::new(4);
        for _ in 0..300 {
            let s = rng.gen_range(0..4);
            let o: f64 = rng.gen_range(0.0..100.0);
            d.push(s, o);
        }
        if time_protection::analysis::leakage_test(&d, 1000 + t).leaks {
            leaks += 1;
        }
    }
    // 95% bound => ~5% false positives expected; allow generous slack.
    assert!(leaks <= 3, "{leaks}/{trials} false positives");
}

proptest! {
    /// Any power-of-two cache geometry has a power-of-two set count, at
    /// least one page colour, and consistent line accounting — the same
    /// invariants `PlatformConfig::validate` enforces on the registry.
    #[test]
    fn cache_geometry_invariants(
        size_kib_log2 in 3u32..15, // 8 KiB .. 16 MiB
        ways_log2 in 0u32..5,
        line_log2 in 5u32..8,      // 32 .. 128 B
    ) {
        let geom = tp_sim::CacheGeom {
            size: (1u64 << size_kib_log2) * 1024,
            ways: 1 << ways_log2,
            line: 1 << line_log2,
        };
        if geom.size < geom.line * u64::from(geom.ways) {
            return; // degenerate: fewer than one set
        }
        prop_assert!(geom.sets().is_power_of_two());
        prop_assert!(geom.colors(4096) >= 1);
        prop_assert_eq!(geom.sets() * u64::from(geom.ways), geom.lines());
        prop_assert_eq!(geom.lines() * geom.line, geom.size);
    }
}

/// Every platform in the registry satisfies the structural invariants:
/// power-of-two cache sets, at least one colour, L1 ≤ L2 ≤ LLC ≤ DRAM
/// latency ordering, and one line size across all levels.
#[test]
fn registered_platforms_satisfy_invariants() {
    use tp_sim::Platform;
    for p in Platform::ALL {
        let cfg = p.config();
        let errs = cfg.validate();
        assert!(errs.is_empty(), "{} invalid: {errs:?}", p.key());
        // Spot-check the load-bearing invariants directly, independent of
        // validate()'s own implementation.
        for geom in [cfg.l1d, cfg.l1i, cfg.l2].into_iter().chain(cfg.llc) {
            assert!(
                geom.sets().is_power_of_two(),
                "{}: {} sets",
                p.key(),
                geom.sets()
            );
            assert!(geom.colors(cfg.page) >= 1, "{}: zero colours", p.key());
            assert_eq!(geom.line, cfg.line, "{}: mixed line sizes", p.key());
        }
        assert!(cfg.lat.l1_hit <= cfg.lat.l2_hit, "{}", p.key());
        assert!(cfg.lat.l2_hit <= cfg.lat.llc_hit, "{}", p.key());
        assert!(cfg.lat.llc_hit <= cfg.lat.dram, "{}", p.key());
        assert!(cfg.partition_colors() >= 1, "{}", p.key());
    }
}

/// validate() actually rejects broken configurations (it is the gate the
/// campaign binary runs before burning time on a platform).
#[test]
fn validate_rejects_broken_configs() {
    use tp_sim::Platform;
    let mut cfg = Platform::Haswell.config();
    cfg.lat.dram = 1; // DRAM faster than LLC: nonsense
    assert!(!cfg.validate().is_empty());

    let mut cfg = Platform::Haswell.config();
    cfg.l1d.size = 3 * 1024; // 6 sets: not a power of two
    assert!(!cfg.validate().is_empty());

    let mut cfg = Platform::Sabre.config();
    cfg.l2.line = 64; // mixed line sizes (platform line is 32)
    assert!(!cfg.validate().is_empty());
}

/// Build-and-run one fixed multi-environment workload; used by the pinned
/// executor reference and the fault-isolation property below. Three
/// domains on one core — a probing primary, a computing daemon and a
/// paging daemon — exercise preemption, batched sweeps and kernel
/// allocation paths. A fault aimed at the primary surfaces as `Err`.
fn executor_fixture(
    platform: tp_sim::Platform,
    seed: u64,
) -> Result<tp_core::SystemReport, tp_core::SimError> {
    use parking_lot::Mutex;
    use std::sync::Arc;
    use time_protection::attacks::probe::l1_probe;
    use tp_core::{ProtectionConfig, SystemBuilder, UserEnv};

    let obs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let obs2 = Arc::clone(&obs);
    let mut b = SystemBuilder::new(platform, ProtectionConfig::protected())
        .seed(seed)
        .slice_us(30.0)
        .max_cycles(600_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    let d2 = b.domain(None);
    b.spawn(d0, 0, 100, move |env: &mut UserEnv| {
        let buf = l1_probe(env, env.platform().l1d);
        for _ in 0..6 {
            obs2.lock().push(buf.probe(env));
            let _ = env.wait_preempt();
        }
    });
    b.spawn_daemon(d1, 0, 100, move |env: &mut UserEnv| loop {
        env.compute(10_000);
        env.sleep_slice();
    });
    b.spawn_daemon(d2, 0, 100, move |env: &mut UserEnv| {
        let (va, _) = env.map_pages(4);
        loop {
            env.load(va);
            env.store(va);
            let _ = env.wait_preempt();
        }
    });
    b.try_run()
}

/// [`executor_fixture`] with `env-panic@at` armed, if any.
fn executor_fixture_with_panic(
    platform: tp_sim::Platform,
    seed: u64,
    at: Option<u64>,
) -> Result<tp_core::SystemReport, tp_core::SimError> {
    use tp_core::{fault, FaultKind};
    fault::arm(at.map(|at| FaultKind::EnvPanic { at }));
    let r = executor_fixture(platform, seed);
    fault::arm(None);
    r
}

/// What one pinned [`executor_fixture`] run produced.
enum Pinned {
    /// The run completed: final kernel state hash, core-0 cycle count (the
    /// other cores stay idle) and the environment that failed in isolation,
    /// if any.
    Ran {
        hash: u64,
        cycles0: u64,
        failed: Option<u64>,
    },
    /// The panic landed on the primary (env 0) and ended the run.
    PrimaryDied,
}

/// Reference outputs of [`executor_fixture`] — platform, seed, `env-panic`
/// ordinal — recorded from the thread-per-environment engine (one parked
/// host thread per environment) and every worker-pool size of the old
/// cooperative executor, which all agreed, before the single inline driver
/// replaced them.
#[rustfmt::skip]
const EXECUTOR_PINS: [(tp_sim::Platform, u64, Option<u64>, Pinned); 48] = {
    use tp_sim::Platform::{Haswell, HiKey, Sabre, Skylake};
    use Pinned::{PrimaryDied, Ran};
    [
    (Haswell, 0x5EED_0001, None, Ran { hash: 0x3160_B4BE_46CB_0152, cycles0: 5_699_983, failed: None }),
    (Haswell, 0x5EED_0001, Some(2), Ran { hash: 0xE302_C710_9B89_DBEB, cycles0: 5_699_653, failed: Some(2) }),
    (Haswell, 0x5EED_0001, Some(5), Ran { hash: 0x78BF_982B_6E66_DE56, cycles0: 5_699_721, failed: Some(2) }),
    (Haswell, 0x5EED_0001, Some(11), Ran { hash: 0x7DDD_89E5_48C0_8964, cycles0: 5_699_689, failed: Some(2) }),
    (Haswell, 0xC0FF_EE00_1234, None, Ran { hash: 0xF866_B7AE_09D7_6BAE, cycles0: 5_698_816, failed: None }),
    (Haswell, 0xC0FF_EE00_1234, Some(2), Ran { hash: 0xA186_649A_766E_63CB, cycles0: 5_698_648, failed: Some(2) }),
    (Haswell, 0xC0FF_EE00_1234, Some(5), Ran { hash: 0x56F5_B717_9AE7_4C1E, cycles0: 5_698_896, failed: Some(2) }),
    (Haswell, 0xC0FF_EE00_1234, Some(11), Ran { hash: 0x51A5_C727_38D3_5C9E, cycles0: 5_699_134, failed: Some(2) }),
    (Haswell, 0xDEAD_BEEF, None, Ran { hash: 0x769E_C92F_BDDE_B796, cycles0: 5_698_928, failed: None }),
    (Haswell, 0xDEAD_BEEF, Some(2), Ran { hash: 0x069B_7646_0B98_F32B, cycles0: 5_698_880, failed: Some(2) }),
    (Haswell, 0xDEAD_BEEF, Some(5), Ran { hash: 0x42C3_8159_484D_6017, cycles0: 5_698_996, failed: Some(2) }),
    (Haswell, 0xDEAD_BEEF, Some(11), Ran { hash: 0xCFCB_472D_5DF4_61B0, cycles0: 5_698_718, failed: Some(2) }),
    (Sabre, 0x5EED_0001, None, Ran { hash: 0xC23C_02AE_8410_B8EC, cycles0: 5_711_407, failed: None }),
    (Sabre, 0x5EED_0001, Some(2), Ran { hash: 0xE925_1B02_3058_1959, cycles0: 5_636_372, failed: Some(1) }),
    (Sabre, 0x5EED_0001, Some(5), Ran { hash: 0x90F3_5E64_0A4F_726E, cycles0: 5_639_633, failed: Some(1) }),
    (Sabre, 0x5EED_0001, Some(11), Ran { hash: 0xDD29_F6A8_6EF2_3C79, cycles0: 5_646_147, failed: Some(1) }),
    (Sabre, 0xC0FF_EE00_1234, None, Ran { hash: 0x0E0A_D46D_0CF9_637D, cycles0: 5_710_935, failed: None }),
    (Sabre, 0xC0FF_EE00_1234, Some(2), Ran { hash: 0xCB36_BB3E_068C_642A, cycles0: 5_635_904, failed: Some(1) }),
    (Sabre, 0xC0FF_EE00_1234, Some(5), Ran { hash: 0xD066_A8F7_84D5_B2E8, cycles0: 5_639_161, failed: Some(1) }),
    (Sabre, 0xC0FF_EE00_1234, Some(11), Ran { hash: 0x2BDA_50A0_F6B4_4FB5, cycles0: 5_645_675, failed: Some(1) }),
    (Sabre, 0xDEAD_BEEF, None, Ran { hash: 0xFE6E_9C00_A0A6_07C2, cycles0: 5_710_914, failed: None }),
    (Sabre, 0xDEAD_BEEF, Some(2), Ran { hash: 0x196A_75A8_D309_8C2A, cycles0: 5_635_883, failed: Some(1) }),
    (Sabre, 0xDEAD_BEEF, Some(5), Ran { hash: 0x4E39_F10F_7CA0_7252, cycles0: 5_639_140, failed: Some(1) }),
    (Sabre, 0xDEAD_BEEF, Some(11), Ran { hash: 0x4DF6_970C_C14D_FFF7, cycles0: 5_645_654, failed: Some(1) }),
    (Skylake, 0x5EED_0001, None, Ran { hash: 0xA351_CA63_B7F9_6C14, cycles0: 4_453_785, failed: None }),
    (Skylake, 0x5EED_0001, Some(2), Ran { hash: 0xE706_EB04_801A_FDD9, cycles0: 4_452_879, failed: Some(2) }),
    (Skylake, 0x5EED_0001, Some(5), PrimaryDied),
    (Skylake, 0x5EED_0001, Some(11), Ran { hash: 0x0118_61B4_CDBA_35AC, cycles0: 4_453_637, failed: Some(2) }),
    (Skylake, 0xC0FF_EE00_1234, None, Ran { hash: 0x519A_C0B5_F4F4_614C, cycles0: 4_539_962, failed: None }),
    (Skylake, 0xC0FF_EE00_1234, Some(2), Ran { hash: 0x9EBD_15AE_254C_254C, cycles0: 4_441_772, failed: Some(2) }),
    (Skylake, 0xC0FF_EE00_1234, Some(5), PrimaryDied),
    (Skylake, 0xC0FF_EE00_1234, Some(11), PrimaryDied),
    (Skylake, 0xDEAD_BEEF, None, Ran { hash: 0x0728_976B_DEE0_3192, cycles0: 4_452_745, failed: None }),
    (Skylake, 0xDEAD_BEEF, Some(2), Ran { hash: 0x871E_49C4_711F_63DF, cycles0: 4_442_029, failed: Some(2) }),
    (Skylake, 0xDEAD_BEEF, Some(5), PrimaryDied),
    (Skylake, 0xDEAD_BEEF, Some(11), Ran { hash: 0x495B_EA47_C795_88B5, cycles0: 4_560_693, failed: Some(2) }),
    (HiKey, 0x5EED_0001, None, Ran { hash: 0x30E3_CB3D_3E71_F5FA, cycles0: 2_280_123, failed: None }),
    (HiKey, 0x5EED_0001, Some(2), Ran { hash: 0x84FA_7A90_CA0A_48E3, cycles0: 2_280_261, failed: Some(2) }),
    (HiKey, 0x5EED_0001, Some(5), Ran { hash: 0xDB63_4405_49DB_58C5, cycles0: 2_280_123, failed: Some(1) }),
    (HiKey, 0x5EED_0001, Some(11), Ran { hash: 0x7D5C_63B5_AD51_7195, cycles0: 2_280_112, failed: Some(2) }),
    (HiKey, 0xC0FF_EE00_1234, None, Ran { hash: 0xF9A8_465B_7AC9_B75D, cycles0: 2_280_242, failed: None }),
    (HiKey, 0xC0FF_EE00_1234, Some(2), Ran { hash: 0x89C2_FF90_0234_6995, cycles0: 2_280_209, failed: Some(2) }),
    (HiKey, 0xC0FF_EE00_1234, Some(5), Ran { hash: 0xCFF0_4F0C_C821_69B7, cycles0: 2_280_242, failed: Some(1) }),
    (HiKey, 0xC0FF_EE00_1234, Some(11), Ran { hash: 0xB10A_70FA_2144_77BC, cycles0: 2_280_231, failed: Some(2) }),
    (HiKey, 0xDEAD_BEEF, None, Ran { hash: 0x7F0D_6A6E_E889_549F, cycles0: 2_280_234, failed: None }),
    (HiKey, 0xDEAD_BEEF, Some(2), Ran { hash: 0x0C60_2014_2253_8E23, cycles0: 2_280_370, failed: Some(2) }),
    (HiKey, 0xDEAD_BEEF, Some(5), Ran { hash: 0x5110_0C19_3B64_25DE, cycles0: 2_280_234, failed: Some(1) }),
    (HiKey, 0xDEAD_BEEF, Some(11), Ran { hash: 0x742D_E913_4DF5_DCE1, cycles0: 2_280_223, failed: Some(2) }),
    ]
};

/// The executor reproduces the pinned reference bit for bit: final kernel
/// state hash, per-core cycle counts and the typed
/// [`tp_core::EnvOutcome`] list — or, when the panic lands on the primary,
/// the identical error. CI runs this under both coroutine backends.
#[test]
fn executor_reproduces_pinned_reference() {
    use tp_core::EnvOutcome;
    for (p, seed, at, pinned) in &EXECUTOR_PINS {
        let (p, seed, at) = (*p, *seed, *at);
        let r = executor_fixture_with_panic(p, seed, at);
        let case = format!("{} seed {seed:#x} env-panic@{at:?}", p.key());
        match (pinned, r) {
            (
                Pinned::Ran {
                    hash,
                    cycles0,
                    failed,
                },
                Ok(r),
            ) => {
                assert_eq!(r.state_hash, *hash, "{case}: state hash");
                let mut cycles = vec![0; p.config().cores];
                cycles[0] = *cycles0;
                assert_eq!(r.cycles, cycles, "{case}: cycles");
                let outcomes: Vec<EnvOutcome> = (0..3)
                    .map(|env| match (*failed, at) {
                        (Some(f), Some(at)) if f == env => EnvOutcome::Failed {
                            env,
                            message: format!("injected fault: env-panic at syscall {at}"),
                        },
                        _ => EnvOutcome::Completed,
                    })
                    .collect();
                assert_eq!(r.env_outcomes, outcomes, "{case}: env outcomes");
            }
            (Pinned::PrimaryDied, Err(e)) => assert_eq!(
                e.to_string(),
                format!(
                    "simulated program failed: injected fault: env-panic at syscall {} (env 0)",
                    at.expect("only a fault kills the primary")
                ),
                "{case}"
            ),
            (_, r) => panic!("{case}: unexpected outcome {:?}", r.map(|r| r.env_outcomes)),
        }
    }
}

proptest! {
    /// Per-environment failure isolation holds for any platform, seed and
    /// `env-panic` ordinal, and the outcome is a pure function of them: a
    /// second run reproduces the survivors' final kernel state hash,
    /// per-core cycle counts and typed [`tp_core::EnvOutcome`] list (or,
    /// when the panic lands on the primary, the identical error). A panic
    /// that lands on a daemon must never abort the run or take the whole
    /// fleet down; one beyond the run's interaction count must leave no
    /// trace at all.
    #[test]
    fn env_failure_isolation_is_executor_invariant(
        p in proptest::sample::select(tp_sim::Platform::ALL),
        seed in any::<u64>(),
        at in 2u64..18,
    ) {
        use tp_core::EnvOutcome;
        let base = executor_fixture_with_panic(p, seed, Some(at));
        match (&base, &executor_fixture_with_panic(p, seed, Some(at))) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    b.state_hash, a.state_hash,
                    "{}: survivor state diverged between runs", p.key()
                );
                prop_assert_eq!(&b.cycles, &a.cycles);
                prop_assert_eq!(&b.env_outcomes, &a.env_outcomes);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "{}: primary-death error diverged between runs", p.key()
                );
            }
            (a, b) => {
                panic!(
                    "{}: first run {} but second {}",
                    p.key(),
                    if a.is_ok() { "completed" } else { "errored" },
                    if b.is_ok() { "completed" } else { "errored" },
                );
            }
        }
        if let Ok(a) = &base {
            let failed = a
                .env_outcomes
                .iter()
                .filter(|o| matches!(o, EnvOutcome::Failed { .. }))
                .count();
            if failed == 0 {
                // The ordinal was beyond the run's interaction count: the
                // armed-but-inert fault must leave no trace at all.
                let clean = executor_fixture(p, seed).expect("clean fixture");
                prop_assert_eq!(
                    a.state_hash, clean.state_hash,
                    "{}: inert env-panic@{} perturbed the run", p.key(), at
                );
            } else {
                // Contained, not collapsed: at least one daemon survived.
                // (A death mid-critical-section can legitimately take a
                // sibling with it — the cascade is itself deterministic,
                // pinned by the `env_outcomes` equality above.)
                prop_assert!(
                    failed < a.env_outcomes.len(),
                    "{}: env-panic@{} took the whole fleet down", p.key(), at
                );
            }
        }
    }
}
