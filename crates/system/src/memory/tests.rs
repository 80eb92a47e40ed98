//! Unit tests of the tier manager: core, flat and cluster paths.

use super::cluster::per_cluster::{reach, PerClusterManager};
use super::*;
use proptest::prelude::*;
use vrex_hwsim::dram::DramConfig;
use vrex_hwsim::pcie::PcieConfig;
use vrex_hwsim::seconds_to_ps;
use vrex_hwsim::ssd::SsdConfig;

const GIB: u64 = 1 << 30;

fn server_path() -> TierPath {
    TierPath {
        pcie: PcieConfig::gen4_x16(),
        host_dram: Some(DramConfig::ddr4_cpu()),
        ssd: Some(SsdConfig::bg6_class()),
    }
}

fn server_manager(device: u64, host: u64, ssd: u64) -> TieredKvManager {
    let caps = TierCapacities {
        device_bytes: device,
        host_bytes: host,
        ssd_bytes: ssd,
    };
    TieredKvManager::new(caps, server_path())
}

/// The run-length state behind [`TieredKvManager::spilled_clusters`].
fn cluster_runs(m: &TieredKvManager, id: usize) -> Vec<(MemTier, u64, u64)> {
    m.slot(id)
        .map_or(Vec::new(), |i| m.sessions[i].clusters.runs())
}

/// Everything decided since the last drain, in decision order.
fn drained(m: &mut TieredKvManager) -> Vec<MigrationTask> {
    let mut tasks = Vec::new();
    m.drain_migrations_into(&mut tasks);
    tasks
}

#[test]
fn streams_stay_device_resident_until_the_budget_trips() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
    assert_eq!(m.used_bytes(MemTier::Host), 0);
    assert_eq!(m.ever_spilled_sessions(), 0);
}

#[test]
fn overflow_spills_the_coldest_stream_first() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0); // coldest
    m.admit(1, 2 * GIB, 1);
    m.admit(2, 2 * GIB, 2); // 2 GiB over budget
    let r0 = *m.residency(0).unwrap();
    assert_eq!(r0.host_bytes, 2 * GIB, "stream 0 spilled: {r0:?}");
    assert_eq!(m.residency(2).unwrap().host_bytes, 0, "newcomer stays hot");
    assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
    assert_eq!(m.stats().spilled_bytes, 2 * GIB);
    assert_eq!(m.ever_spilled_sessions(), 1);
}

#[test]
fn host_overflow_cascades_to_the_ssd() {
    let mut m = server_manager(GIB, GIB, 64 * GIB);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1);
    m.admit(2, GIB, 2);
    // 3 GiB of demand into 1 GiB device + 1 GiB host: the coldest
    // stream's spill lands on the SSD.
    assert_eq!(m.used_bytes(MemTier::Device), GIB);
    assert_eq!(m.used_bytes(MemTier::Host), GIB);
    assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
}

#[test]
fn two_restore_legs_serialise_on_one_link() {
    // A 2 GiB stream on a 1 GiB device over a ½ GiB host tier: the
    // overflow fills the host and the rest lands on the SSD, so its
    // restore has a host leg and an SSD leg crossing the one link.
    let mut m = server_manager(GIB, GIB / 2, 64 * GIB);
    m.admit(0, 2 * GIB, 0);
    let r = *m.residency(0).unwrap();
    assert_eq!((r.host_bytes, r.ssd_bytes), (GIB / 2, GIB / 2));
    let (plan, exposed_ps) = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
    let leg =
        |from| server_path().migrate_ps(from, MemTier::Device, GIB / 2, MIGRATION_CHUNK_BYTES);
    assert_eq!(
        (plan.host_ps, plan.ssd_ps),
        (leg(MemTier::Host), leg(MemTier::Ssd))
    );
    assert!(plan.host_ps > 0 && plan.ssd_ps > 0);
    assert_eq!(plan.miss_ps(), plan.host_ps + plan.ssd_ps);
    assert_eq!(exposed_ps, plan.miss_ps(), "demand fetch hides nothing");
}

#[test]
fn release_promotes_the_hottest_spilled_stream() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    m.admit(2, 2 * GIB, 2); // spills 0
    assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);
    m.release(1); // frees 2 GiB of device
    let r0 = *m.residency(0).unwrap();
    assert_eq!(r0.host_bytes, 0, "stream 0 promoted back: {r0:?}");
    assert_eq!(r0.device_bytes, 2 * GIB);
    assert_eq!(m.stats().promoted_bytes, 2 * GIB);
}

#[test]
fn device_resident_steps_are_tier_hits() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, GIB, 0);
    let p = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
    assert_eq!(p, (RestorePlan::default(), 0));
    assert_eq!(m.stats().tier_hit_steps, 1);
    assert_eq!(m.stats().tier_miss_steps, 0);
}

#[test]
fn spill_then_prefetch_matches_hand_computed_migration() {
    // One full spill → prefetch round trip, hand-computed.
    //
    // Stream 0 (2 GiB) goes cold and is spilled to host DRAM by the
    // admissions of streams 1 and 2. Its next frame step (selection
    // ratio 1.0) must restore all 2 GiB over PCIe 4.0 ×16 in
    // 256 KiB chunks. By hand (DDR4 at ~102 GB/s outruns the link,
    // so the pipelined migration equals the PCIe leg):
    //   bytes   = 2^31;  chunks = 2^31 / 2^18 = 8192
    //   TLPs    = 2^31/256 + 8192 = 8_388_608 + 8_192 = 8_396_800
    //   wire    = 2^31 + 8_396_800·24 = 2_349_006_848 B
    //   wire ps = 2_349_006_848 / 32e9 · 1e12 ≈ 73_406_464_000
    //   total   = wire ps + 8192·400_000 ≈ 76_683_264_000 ps
    // Demand fetch exposes all of it; speculative prefetch at 90%
    // accuracy with an ample overlap window hides 90% and exposes
    // exactly the mispredicted 10%.
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    m.admit(2, 2 * GIB, 2);
    assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);

    let bytes = 2 * GIB;
    let chunks = bytes / MIGRATION_CHUNK_BYTES;
    let tlps = bytes / 256 + chunks;
    let wire_bytes = bytes + tlps * 24;
    let miss_ps = seconds_to_ps(wire_bytes as f64 / 32.0e9) + chunks * 400_000;

    let (plan, exposed_ps) = m.step_restore(0, 1.0, false, u64::MAX, &NoPrefetch);
    assert_eq!(plan.miss_ps(), miss_ps);
    assert_eq!(exposed_ps, miss_ps);

    let spec = SpeculativePrefetch { accuracy: 0.9 };
    let (plan, exposed_ps) = m.step_restore(0, 1.0, false, u64::MAX, &spec);
    assert_eq!(plan.miss_ps(), miss_ps);
    assert_eq!(exposed_ps, miss_ps - (miss_ps as f64 * 0.9) as u64);
    assert_eq!(m.stats().tier_miss_steps, 2);
    assert_eq!(m.stats().restored_bytes, 2 * bytes);
}

#[test]
fn narrow_window_bounds_what_prefetch_can_hide() {
    let mut m = server_manager(GIB, 8 * GIB, 0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1); // spills 0 entirely
    let spec = SpeculativePrefetch { accuracy: 1.0 };
    let (_, full) = m.step_restore(0, 1.0, false, 0, &spec);
    let window = full / 2;
    let (_, half) = m.step_restore(0, 1.0, false, window, &spec);
    assert_eq!(half, full - window, "only the window is hidden");
}

#[test]
fn selection_ratio_scales_the_restore() {
    let mut m = server_manager(GIB, 8 * GIB, 0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1);
    let (_, full) = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
    let (_, tenth) = m.step_restore(0, 0.1, false, 0, &NoPrefetch);
    assert!(tenth < full / 5, "ratio 0.1 restore {tenth} vs full {full}");
    assert!(tenth > 0);
}

#[test]
fn grow_keeps_the_growing_stream_hot() {
    let mut m = server_manager(2 * GIB, 8 * GIB, 0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1);
    // Stream 1 grows past the budget at t=2: stream 0 (colder)
    // takes the spill even though 1 caused the overflow.
    m.grow(1, GIB, 2);
    assert_eq!(m.residency(0).unwrap().host_bytes, GIB);
    assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
}

#[test]
fn migration_price_memo_is_bit_identical_to_the_closed_form() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 64 * GIB);
    let path = server_path();
    // The repeated 1 MiB shape exercises the hit path; every lookup
    // must equal the direct closed form exactly.
    for bytes in [1u64, 4096, 1 << 20, 2 * GIB, 1 << 20, 4096] {
        for (from, to) in [
            (MemTier::Host, MemTier::Device),
            (MemTier::Ssd, MemTier::Device),
            (MemTier::Device, MemTier::Host),
            (MemTier::Host, MemTier::Ssd),
        ] {
            assert_eq!(
                m.migration_price_ps(from, to, bytes),
                path.migrate_ps(from, to, bytes, MIGRATION_CHUNK_BYTES),
                "{from}->{to} {bytes}B"
            );
        }
    }
    assert!(m.price_hits() > 0, "repeated shapes must hit the memo");
    // Zero bytes and same-tier moves stay free without polluting it.
    let misses = m.price_misses();
    assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Device, 0), 0);
    assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Host, GIB), 0);
    assert_eq!(m.price_misses(), misses);
}

#[test]
fn repeated_restore_shapes_hit_the_memo() {
    let mut m = server_manager(GIB, 8 * GIB, 0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1); // spills 0 entirely
    let a = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
    let hits_before = m.price_hits();
    let b = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
    assert_eq!(a, b, "memoized repeat must be bit-identical");
    assert!(m.price_hits() > hits_before, "second shape is a hit");
}

#[test]
fn spills_and_promotions_emit_migration_tasks() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    assert!(drained(&mut m).is_empty(), "no pressure, no tasks");
    m.admit(2, 2 * GIB, 2); // spills stream 0 down
    assert_eq!(
        drained(&mut m),
        vec![MigrationTask {
            session: 0,
            from: MemTier::Device,
            to: MemTier::Host,
            bytes: 2 * GIB,
        }]
    );
    assert!(drained(&mut m).is_empty(), "drain empties the queue");
    m.release(1); // frees device space: stream 0 promotes back
    assert_eq!(
        drained(&mut m),
        vec![MigrationTask {
            session: 0,
            from: MemTier::Host,
            to: MemTier::Device,
            bytes: 2 * GIB,
        }]
    );
}

#[test]
fn plan_and_commit_reproduce_step_restore() {
    let mk = || {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        m
    };
    let spec = SpeculativePrefetch { accuracy: 0.9 };
    let window = 123_456_789u64;
    let mut serialized = mk();
    let (committed, exposed_ps) = serialized.step_restore(0, 1.0, false, window, &spec);
    // The decomposed path: plan, apply the same window rule, commit.
    let mut decomposed = mk();
    let plan = decomposed.plan_restore(0, 1.0, false, &spec);
    assert_eq!(plan, committed);
    assert!(plan.host_bytes > 0, "spill lives in host DRAM");
    assert_eq!(plan.ssd_bytes, 0);
    let hidden = ((plan.miss_ps() as f64 * plan.coverage) as u64).min(window);
    assert_eq!(exposed_ps, plan.miss_ps() - hidden);
    decomposed.commit_restore(&plan, hidden, plan.miss_ps() - hidden);
    assert_eq!(serialized.stats(), decomposed.stats());
    // A hit commits as a hit: fully device-resident stream.
    let mut hot = server_manager(4 * GIB, 8 * GIB, 0);
    hot.admit(7, GIB, 0);
    let plan = hot.plan_restore(7, 1.0, false, &spec);
    assert_eq!(plan, RestorePlan::default());
    hot.commit_restore(&plan, 0, 0);
    assert_eq!(hot.stats().tier_hit_steps, 1);
    assert_eq!(hot.stats().tier_miss_steps, 0);
}

#[test]
fn cluster_spill_demotes_the_cold_tail_one_run_at_a_time() {
    // 256 KiB clusters, half of each session WiCSum-protected.
    let mut m = server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
    m.admit(0, 2 * GIB, 0); // fills the device exactly
    m.grow(0, MIGRATION_CHUNK_BYTES, 1); // one cluster over
    let r = *m.residency(0).unwrap();
    assert_eq!(r.device_bytes, 2 * GIB);
    assert_eq!(r.host_bytes, MIGRATION_CHUNK_BYTES);
    assert_eq!(
        m.spilled_clusters(0),
        vec![(0, MemTier::Host, MIGRATION_CHUNK_BYTES)],
        "coldness rank 0 spilled to host"
    );
    assert_eq!(
        drained(&mut m),
        vec![MigrationTask {
            session: 0,
            from: MemTier::Device,
            to: MemTier::Host,
            bytes: MIGRATION_CHUNK_BYTES,
        }],
        "one coalesced cluster-sized demotion"
    );
    assert_eq!(m.stats().spilled_bytes, MIGRATION_CHUNK_BYTES);
}

#[test]
fn cluster_restore_prices_only_the_mispredicted_tail() {
    // Continues the single-cluster demotion above with a
    // hand-computed restore. One 256 KiB cluster sits on host DRAM
    // at coldness rank 0. n = 8193 clusters, ratio 0.5 predicts
    // ceil(8193·0.5) = 4097 hot clusters (coldness ranks >= 4096 —
    // none spilled, so nothing is speculated), and at 90% accuracy
    // ceil(4097·0.1) = 410 tail clusters are mispredicted. The
    // rotation starts at step_seq = 0, so tail rank 0 — the one
    // spilled cluster — is demand-fetched. By hand over PCIe 4.0
    // ×16 in one 256 KiB chunk:
    //   TLPs = 262144/256 + 1 = 1025
    //   wire = 262144 + 1025·24 = 286_744 B
    //   ps   = 286_744/32e9·1e12 + 400_000
    let mut m = server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
    m.admit(0, 2 * GIB, 0);
    m.grow(0, MIGRATION_CHUNK_BYTES, 1);

    let bytes = MIGRATION_CHUNK_BYTES;
    let tlps = bytes / 256 + 1;
    let wire = bytes + tlps * 24;
    let miss_ps = seconds_to_ps(wire as f64 / 32.0e9) + 400_000;

    let policy = ClusterPrefetch { accuracy: 0.9 };
    let (plan, exposed_ps) = m.step_restore(0, 0.5, false, u64::MAX, &policy);
    assert_eq!(plan.miss_ps(), miss_ps);
    assert_eq!(exposed_ps, miss_ps, "demand fetch hides nothing");
    assert_eq!(plan.spec_bytes, 0);
    assert_eq!(plan.demand_bytes, bytes);
    assert_eq!(plan.spec_clusters, 0);
    assert_eq!(plan.demand_clusters, 1);
    assert_eq!(plan.mispredicted_clusters, 410);
    assert_eq!(m.stats().restored_bytes, bytes);

    // The next step's misprediction rotation moves off rank 0, so
    // the still-spilled cluster goes untouched: a tier hit. Its plan
    // still names the 410 mispredicted clusters; none is spilled, so
    // it moves nothing and exposes nothing.
    let (plan, exposed_ps) = m.step_restore(0, 0.5, false, u64::MAX, &policy);
    assert_eq!((plan.miss_ps(), exposed_ps), (0, 0));
    assert_eq!((plan.spec_bytes, plan.demand_bytes), (0, 0));
    assert_eq!((plan.spec_clusters, plan.demand_clusters), (0, 0));
    assert_eq!(m.stats().tier_hit_steps, 1);
    assert_eq!(m.stats().tier_miss_steps, 1);
}

#[test]
fn cluster_spill_takes_cold_tails_before_any_hot_prefix() {
    // 1 GiB clusters, half protected: the 2 GiB overflow is met by
    // the cold *tails* of the two coldest sessions — flat LRU
    // would instead evict session 0 entirely, hot prefix included.
    let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    m.admit(2, 2 * GIB, 2);
    let r0 = *m.residency(0).unwrap();
    let r1 = *m.residency(1).unwrap();
    let r2 = *m.residency(2).unwrap();
    assert_eq!((r0.device_bytes, r0.host_bytes), (GIB, GIB));
    assert_eq!((r1.device_bytes, r1.host_bytes), (GIB, GIB));
    assert_eq!(r2.spilled_bytes(), 0, "newcomer stays hot");
    assert_eq!(m.ever_spilled_sessions(), 2);
    // Conservation: each session's summary equals its cluster map.
    for id in 0..3 {
        let r = *m.residency(id).unwrap();
        let spilled: u64 = m.spilled_clusters(id).iter().map(|&(_, _, b)| b).sum();
        assert_eq!(r.spilled_bytes(), spilled);
        assert_eq!(r.device_bytes, r.total_bytes() - spilled);
    }
}

#[test]
fn cluster_promotion_returns_hottest_sessions_hottest_clusters() {
    let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
    m.admit(0, 2 * GIB, 0);
    m.admit(1, 2 * GIB, 1);
    m.admit(2, 2 * GIB, 2); // spills one cluster each of 0 and 1
    drained(&mut m);
    m.release(2); // frees 2 GiB: both spilled clusters promote
    assert_eq!(m.residency(0).unwrap().spilled_bytes(), 0);
    assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
    assert_eq!(
        drained(&mut m),
        vec![
            // Hotter session 1 promotes before colder session 0.
            MigrationTask {
                session: 1,
                from: MemTier::Host,
                to: MemTier::Device,
                bytes: GIB,
            },
            MigrationTask {
                session: 0,
                from: MemTier::Host,
                to: MemTier::Device,
                bytes: GIB,
            },
        ]
    );
    assert_eq!(m.stats().promoted_bytes, 2 * GIB);
}

#[test]
fn cluster_host_overflow_cascades_cold_clusters_to_the_ssd() {
    let mut m = server_manager(GIB, GIB, 64 * GIB).with_cluster_mode(GIB / 4, 0.0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1);
    m.admit(2, GIB, 2);
    assert_eq!(m.used_bytes(MemTier::Device), GIB);
    assert_eq!(m.used_bytes(MemTier::Host), GIB);
    assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
    // Every spilled cluster sits in exactly one tier and per-tier
    // sums match the residency summaries.
    for id in 0..3 {
        let r = *m.residency(id).unwrap();
        let (mut host, mut ssd) = (0u64, 0u64);
        for (_, tier, b) in m.spilled_clusters(id) {
            match tier {
                MemTier::Host => host += b,
                MemTier::Ssd => ssd += b,
                MemTier::Device => panic!("device cluster in the spilled set"),
            }
        }
        assert_eq!(host, r.host_bytes);
        assert_eq!(ssd, r.ssd_bytes);
    }
}

#[test]
fn flat_policies_on_a_cluster_manager_fall_back_to_byte_math() {
    let mut m = server_manager(GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.0);
    m.admit(0, GIB, 0);
    m.admit(1, GIB, 1); // spills 0 entirely
    let (plan, exposed_ps) = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
    assert!(plan.miss_ps() > 0);
    assert_eq!(exposed_ps, plan.miss_ps());
    assert_eq!(
        (
            plan.spec_clusters,
            plan.demand_clusters,
            plan.mispredicted_clusters
        ),
        (0, 0, 0),
        "flat plans carry no cluster telemetry"
    );
    assert_eq!(m.stats().restored_bytes, GIB);
}

#[test]
fn untracked_streams_cost_nothing() {
    let mut m = server_manager(GIB, GIB, 0);
    assert_eq!(
        m.step_restore(99, 1.0, true, 0, &NoPrefetch),
        (RestorePlan::default(), 0)
    );
    m.touch(99, 5);
    m.release(99);
    assert_eq!(m.stats(), TierStats::default());
}

#[test]
fn was_ever_spilled_answers_for_tracked_streams_only() {
    let mut m = server_manager(2 * GIB, 8 * GIB, 0);
    m.admit(0, 2 * GIB, 0);
    assert!(!m.was_ever_spilled(0));
    m.admit(1, 2 * GIB, 1); // spills 0 entirely
    assert!(m.was_ever_spilled(0));
    assert!(!m.was_ever_spilled(1));
    assert_eq!(m.ever_spilled_sessions(), 1);
    // Promoted back: the flag is "ever", not "currently".
    m.release(1);
    assert_eq!(m.residency(0).unwrap().spilled_bytes(), 0);
    assert!(m.was_ever_spilled(0));
    // The flag retires with the stream; the fleet count does not.
    m.release(0);
    assert!(!m.was_ever_spilled(0));
    assert_eq!(m.ever_spilled_sessions(), 1);
}

#[test]
fn cluster_runs_merge_on_push_and_split_on_pop() {
    use MemTier::{Host, Ssd};
    let mut c = ClusterState::default();
    c.push(Host, 8, 5);
    c.push(Host, 8, 2); // same tier and size: one run
    c.push(Ssd, 8, 3);
    c.push(Host, 4, 1); // a partial last cluster never merges
    assert_eq!(c.runs(), [(Host, 8, 7), (Ssd, 8, 3), (Host, 4, 1)]);
    // Promotion pops from the hottest run, whole or in part.
    c.pop(1);
    c.pop(2);
    assert_eq!(c.runs(), [(Host, 8, 7), (Ssd, 8, 1)]);
    // A push equal to the run a pop shortened rejoins it.
    c.push(Ssd, 8, 4);
    assert_eq!(c.runs(), [(Host, 8, 7), (Ssd, 8, 5)]);
    c.pop(5);
    c.pop(7);
    assert_eq!(c.runs(), []);
}

#[test]
fn cluster_runs_stay_bounded_under_churn() {
    // `fleet_cluster`-shaped churn (static 256 KiB granule; host DRAM
    // holds the spill but for its peak, which reaches the SSD): every
    // round admits the newest stream, grows and steps the live ones,
    // and retires the oldest. Streams hold thousands of spilled
    // clusters, yet what the manager walks per operation stays a
    // handful of runs.
    const LIVE: usize = 8;
    let mut m =
        server_manager(3 * GIB, 6 * GIB, 256 * GIB).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.25);
    let policy = ClusterPrefetch { accuracy: 0.9 };
    let (mut most_runs, mut most_clusters) = (0, 0);
    for round in 0..300usize {
        let now = round as u64 * 1_000;
        m.admit(round, GIB + (round as u64 % 7) * 12_345, now);
        for id in round.saturating_sub(LIVE)..=round {
            m.grow(id, 3 * MIGRATION_CHUNK_BYTES / 2, now + id as u64);
            m.step_restore(id, 0.3, false, 1_000_000, &policy);
        }
        if round >= LIVE {
            m.release(round - LIVE);
        }
        for id in round.saturating_sub(LIVE)..=round {
            most_runs = most_runs.max(cluster_runs(&m, id).len());
            most_clusters = most_clusters.max(m.spilled_clusters(id).len());
        }
    }
    assert!(most_clusters >= 3000, "only {most_clusters} clusters");
    assert!(most_runs <= 4, "{most_runs} runs for one stream");
    assert!(m.stats().promoted_bytes > 0 && m.stats().tier_miss_steps > 0);
}

/// Differential check against [`PerClusterManager`]: the run-length
/// manager and the per-cluster walk it replaced stay equal on every
/// observable — residency, cluster maps, migration tasks, restore
/// plans, statistics — through random operation mixes, and between
/// them the cases take every branch a bulk step has to get right.
#[test]
fn run_length_clusters_match_the_per_cluster_reference() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static REACHED: AtomicU32 = AtomicU32::new(0);
    // Odd, so totals rarely divide into whole granules.
    const UNIT: u64 = 4099;
    const SLOTS: usize = 6;
    proptest! {
        fn cases(
            knobs in (0usize..4, 0u64..=4, 0usize..3),
            budget in (2u64..=10, 0u64..=6, 0u64..=30),
            ops in proptest::collection::vec((0u8..10, 0..SLOTS, 1u64..=12), 1..48),
        ) {
            // One-byte clusters chain into coarser granules past
            // 16384 per stream; unit-sized ones make tails of a few
            // clusters, where the misprediction rotation wraps.
            let cluster_bytes = [1, 7, 64, UNIT][knobs.0];
            let protected_ratio = knobs.1 as f64 / 4.0;
            let policy = ClusterPrefetch { accuracy: [0.9, 0.5, 0.0][knobs.2] };
            let caps = TierCapacities {
                device_bytes: budget.0 * UNIT,
                host_bytes: budget.1 * UNIT,
                ssd_bytes: budget.2 * UNIT,
            };
            let mut real = TieredKvManager::new(caps, server_path())
                .with_cluster_mode(cluster_bytes, protected_ratio);
            let mut reference =
                PerClusterManager::new(caps, server_path(), cluster_bytes, protected_ratio);
            // The same call on both managers.
            macro_rules! both {
                ($call:ident($($arg:expr),*)) => {{
                    real.$call($($arg),*);
                    reference.$call($($arg),*);
                }};
            }
            // Stream ids are never reused, as in the serving layer.
            let mut ids: [usize; SLOTS] = std::array::from_fn(|slot| slot);
            for (step, &(op, slot, units)) in ops.iter().enumerate() {
                let id = ids[slot];
                // Two operations per tick: coldness ties happen.
                let now = (step as u64 / 2) * 1_000;
                match op {
                    0 | 1 => both!(admit(id, units * UNIT, now)),
                    2 => both!(grow(id, units * 1031, now)),
                    3 => both!(touch(id, now)),
                    4 => {
                        both!(release(id));
                        ids[slot] += SLOTS;
                    }
                    _ => {
                        let ratio = units as f64 / 12.0;
                        let plan = real.plan_restore(id, ratio, units % 2 == 1, &policy);
                        let expected = reference.plan_restore(id, ratio, units % 2 == 1, &policy);
                        prop_assert_eq!(plan, expected);
                        let hidden = plan.spec_ps();
                        both!(commit_restore(&plan, hidden, plan.miss_ps() - hidden));
                    }
                }
                prop_assert_eq!(
                    drained(&mut real),
                    std::mem::take(&mut reference.pending_migrations)
                );
                prop_assert_eq!(real.stats(), reference.stats);
                prop_assert_eq!(
                    real.ever_spilled_sessions(),
                    reference.ever_spilled_sessions()
                );
                for &id in &ids {
                    prop_assert_eq!(real.residency(id), reference.residency(id));
                    let clusters = real.spilled_clusters(id);
                    prop_assert_eq!(&clusters, &reference.spilled_clusters(id));
                    // The runs are the clusters, maximally merged.
                    let runs = cluster_runs(&real, id);
                    prop_assert_eq!(runs.iter().map(|r| r.2).sum::<u64>(), clusters.len() as u64);
                    prop_assert!(runs.windows(2).all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)));
                }
                for tier in MemTier::ALL {
                    // `used_bytes` re-checks the cached totals.
                    real.used_bytes(tier);
                }
            }
            REACHED.fetch_or(reference.reached, Ordering::Relaxed);
        }
    }
    cases();
    let missed = reach::ALL & !REACHED.load(Ordering::Relaxed);
    assert_eq!(missed, 0, "no case took reach flag(s) {missed:#010b}");
}
