//! Tiered-memory serving sweep: does spilling cold KV down the
//! HBM → host-DRAM → SSD hierarchy beat rejecting sessions?
//!
//! `serve_capacity` asks how many streams a platform sustains when
//! overflow sessions are *rejected*. This sweep re-asks the question
//! under the tiered admission policy: overflow sessions are admitted
//! and the coldest streams' resident KV is spilled to host DRAM / SSD
//! (`vrex_system::memory`), with restores either demand-fetched or
//! speculatively prefetched (InfiniGen-style) so the migration overlaps
//! the wait window and the step's compute.
//!
//! Axes: fleet size × cache length × device-memory budget (full vs.
//! halved HBM at equal hierarchy) × admission policy (reject-only /
//! tiered demand / tiered + prefetch / tiered + cluster, where the
//! last spills and restores at **hash-cluster** granularity with
//! WiCSum-mass victim ranking instead of whole-session LRU).
//!
//! Usage: `tier_capacity [--smoke] [--overlap]` — `--smoke` shrinks
//! the sweep for CI and asserts the headline results: at equal device
//! memory, at least one configuration admits **more real-time
//! streams** under tiering than under reject-only admission, and on
//! the headline V-Rex48+ReSV unit the cluster-granular policy moves
//! strictly fewer restore bytes with strictly less tier-exposed time
//! than flat tiered+prefetch while sustaining at least its real-time
//! capacity. `--overlap` adds a fifth policy row per unit — tiered+prefetch
//! under the **resource-timeline** execution model
//! (`ServeConfig::overlap`): restores, fetches, and writebacks as
//! contended PCIe-link tasks with up to two batches in flight — and
//! asserts that on the headline V-Rex48+ReSV configuration the
//! overlapped capacity is at least the serialized count at every cache
//! length. Without the flag the stdout is byte-identical to the
//! serialized-only sweep, so the pinned capacity rows never move.
//!
//! Each platform × cache-length unit runs on its own sweep worker
//! ([`vrex_bench::par`]) and shares one [`StepPriceCache`] across its
//! 4 policies × 6 fleet sizes, so a repeated batch shape is priced
//! once per unit rather than once per serve. Tables print in grid
//! order afterwards — stdout is byte-identical to the sequential
//! sweep. The sweep's host time is the repo benchmark's
//! `capacity_sweep` workload (the same 420 serves).

use vrex_bench::par::par_map;
use vrex_bench::report::{banner, f, Table};
use vrex_model::ModelConfig;
use vrex_system::memory::AdmissionPolicy;
use vrex_system::{
    serve_with_cache, Method, PlatformSpec, ServeConfig, ServeReport, StepPriceCache, SystemModel,
};
use vrex_workload::traffic::TrafficConfig;

struct Policy {
    label: &'static str,
    admission: AdmissionPolicy,
    /// Resource-timeline execution ([`vrex_system::ServeConfig`]'s
    /// `overlap` switch).
    overlap: bool,
}

fn policies(overlap: bool) -> Vec<Policy> {
    let mut v = vec![
        Policy {
            label: "reject-only",
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
        },
        Policy {
            label: "tiered demand",
            admission: AdmissionPolicy::tiered_demand(),
            overlap: false,
        },
        Policy {
            label: "tiered+prefetch",
            admission: AdmissionPolicy::tiered_speculative(),
            overlap: false,
        },
        Policy {
            label: "tiered+cluster",
            admission: AdmissionPolicy::tiered_cluster(),
            overlap: false,
        },
    ];
    if overlap {
        v.push(Policy {
            label: "tiered+overlap",
            admission: AdmissionPolicy::tiered_speculative(),
            overlap: true,
        });
    }
    v
}

/// One platform under test, with a device-memory budget label.
#[derive(Clone)]
struct Config {
    sys: SystemModel,
    budget: &'static str,
}

fn halve_hbm(mut p: PlatformSpec) -> PlatformSpec {
    p.mem_capacity /= 2;
    p
}

/// A serving-oriented residency policy: keep up to 32K tokens hot per
/// stream (the whole sweep cache), trading device memory for per-step
/// fetch traffic. This is the configuration where tiering matters —
/// fleets of wide windows overflow the device long before compute
/// saturates.
fn wide_window(mut p: PlatformSpec) -> PlatformSpec {
    p.hot_window_tokens = 32_768;
    p
}

fn configs(smoke: bool) -> Vec<Config> {
    // The headline config: ReSV with a wide resident window. Each
    // stream demands ~4 GiB of device memory, so the halved-HBM box
    // fits only ~5 windows — but a spilled stream restores just the
    // *selected* share of its window (32.7% for frames, 2.5% for
    // decode), cheap enough that tiering admits real-time streams
    // reject-only admission turns away.
    let mut v = vec![Config {
        sys: SystemModel::new(wide_window(halve_hbm(PlatformSpec::vrex48())), Method::ReSV),
        budget: "half HBM, 32K window",
    }];
    if !smoke {
        v.push(Config {
            sys: SystemModel::new(wide_window(PlatformSpec::vrex48()), Method::ReSV),
            budget: "full HBM, 32K window",
        });
        // In-memory methods must restore their *whole* spilled cache
        // every step: tiering admits them but thrashes the link — the
        // FlexGen regime the paper argues against.
        v.push(Config {
            sys: SystemModel::new(halve_hbm(PlatformSpec::vrex48()), Method::VanillaInMemory),
            budget: "half HBM",
        });
        v.push(Config {
            sys: SystemModel::new(halve_hbm(PlatformSpec::vrex48()), Method::Oaken),
            budget: "half HBM",
        });
        v.push(Config {
            sys: SystemModel::new(
                wide_window(halve_hbm(PlatformSpec::a100())),
                Method::InfiniGen,
            ),
            budget: "half HBM, 32K window",
        });
        // Edge box: unified memory, so the SSD is the only spill tier.
        v.push(Config {
            sys: SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory),
            budget: "full LPDDR",
        });
        // Three-tier server: halved HBM, host DDR4, plus an NVMe drive.
        v.push(Config {
            sys: SystemModel::new(
                halve_hbm(PlatformSpec::vrex48()).with_nvme_tier(),
                Method::VanillaInMemory,
            ),
            budget: "half HBM+NVMe",
        });
    }
    v
}

fn run(
    prices: &mut StepPriceCache,
    cache: usize,
    sessions: usize,
    admission: AdmissionPolicy,
    overlap: bool,
) -> ServeReport {
    // Two-turn sessions arriving in a 10 s burst: long enough that a
    // session out-waiting its 10 s patience behind a full device is
    // genuinely rejected rather than sneaking in at the first retire.
    let plans = TrafficConfig {
        sessions,
        turns: 2,
        arrival_spread_s: 10.0,
        seed: 42,
    }
    .generate();
    let cfg = ServeConfig {
        admission,
        overlap,
        ..ServeConfig::real_time(cache)
    };
    serve_with_cache(prices, &plans, &cfg)
}

/// One (platform, cache length) grid unit's rendered output and
/// per-policy best real-time stream counts, plus the restore traffic
/// and tier-exposed time each policy accumulated across the fleet
/// grid (the cluster-vs-flat smoke assertions compare these).
struct UnitResult {
    heading: String,
    table: Table,
    rt: Vec<usize>,
    restored_bytes: Vec<u64>,
    exposed_s: Vec<f64>,
}

fn sweep_unit(
    sys: &SystemModel,
    budget: &str,
    cache: usize,
    fleets: &[usize],
    overlap: bool,
) -> UnitResult {
    let model = ModelConfig::llama3_8b();
    // One price cache for the whole unit: every policy and fleet size
    // replays the same per-session cache trajectories (serialized and
    // overlapped runs key separately in the cache, so sharing is safe).
    let mut prices = StepPriceCache::new(sys, &model);
    let mut t = Table::new([
        "Policy",
        "Offered",
        "Admitted",
        "Rejected",
        "Real-time",
        "p99 lag (s)",
        "Spilled",
        "Restored GiB",
        "Exposed (s)",
        "Hidden (s)",
    ]);
    // Most real-time streams any offered fleet size achieved, per
    // policy (same order as `policies()`).
    let pols = policies(overlap);
    let mut rt = vec![0usize; pols.len()];
    let mut restored_bytes = vec![0u64; pols.len()];
    let mut exposed_s = vec![0f64; pols.len()];
    for (pi, policy) in pols.iter().enumerate() {
        for &n in fleets {
            let r = run(&mut prices, cache, n, policy.admission, policy.overlap);
            rt[pi] = rt[pi].max(r.real_time_sessions);
            if let Some(tr) = &r.tiering {
                restored_bytes[pi] += tr.restored_bytes;
                exposed_s[pi] += tr.exposed_s;
            }
            let (spilled, restored, exposed, hidden) = match &r.tiering {
                Some(tr) => (
                    tr.spilled_sessions.to_string(),
                    f(tr.restored_bytes as f64 / (1u64 << 30) as f64, 1),
                    f(tr.exposed_s, 2),
                    f(tr.hidden_s, 2),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            t.row([
                policy.label.to_string(),
                n.to_string(),
                r.admitted.to_string(),
                r.rejected.to_string(),
                format!("{}/{}", r.real_time_sessions, r.admitted),
                f(r.frame_lag_p99_s, 3),
                spilled,
                restored,
                exposed,
                hidden,
            ]);
        }
    }
    UnitResult {
        heading: format!(
            "{} [{budget}] at {}K cache tokens",
            sys.label(),
            cache / 1000
        ),
        table: t,
        rt,
        restored_bytes,
        exposed_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let overlap = std::env::args().any(|a| a == "--overlap");
    let caches: &[usize] = if smoke { &[32_000] } else { &[16_000, 32_000] };
    let fleets: &[usize] = if smoke {
        &[4, 8, 12]
    } else {
        &[2, 4, 8, 12, 16, 24]
    };

    let mut best_gain: i64 = i64::MIN;
    let mut best_label = String::new();
    let mut headers = vec![
        "System",
        "Device budget",
        "Cache",
        "RT streams (reject)",
        "RT (tiered demand)",
        "RT (tiered+prefetch)",
        "RT (tiered+cluster)",
    ];
    if overlap {
        headers.push("RT (tiered+overlap)");
    }
    let mut summary = Table::new(headers);

    // Fan the (platform, cache) grid units out across sweep workers,
    // then render in grid order.
    let units: Vec<(Config, usize)> = configs(smoke)
        .into_iter()
        .flat_map(|cfg| caches.iter().map(move |&cache| (cfg.clone(), cache)))
        .collect();
    let results = par_map(&units, |(cfg, cache)| {
        sweep_unit(&cfg.sys, cfg.budget, *cache, fleets, overlap)
    });

    for (ui, ((cfg, cache), unit)) in units.iter().zip(results).enumerate() {
        banner(&unit.heading);
        unit.table.print();
        let rt = &unit.rt;
        let gain = rt[2] as i64 - rt[0] as i64;
        if gain > best_gain {
            best_gain = gain;
            best_label = format!(
                "{} [{}] at {}K: {} real-time streams tiered+prefetch vs {} reject-only",
                cfg.sys.label(),
                cfg.budget,
                cache / 1000,
                rt[2],
                rt[0]
            );
        }
        let mut row = vec![
            cfg.sys.label(),
            cfg.budget.to_string(),
            format!("{}K", cache / 1000),
            rt[0].to_string(),
            rt[1].to_string(),
            rt[2].to_string(),
            rt[3].to_string(),
        ];
        if overlap {
            row.push(rt[4].to_string());
            // The acceptance pin: on the headline halved-HBM
            // V-Rex48 + ReSV configuration at 32K tokens,
            // resource-timeline execution must sustain at least the
            // serialized real-time stream count. (At 16K under the
            // 24-session thrash regime the honest link model can run
            // one stream below the serialized window heuristic, which
            // lets consecutive batches hide restores in the *same*
            // link time — that optimism is exactly what the timeline
            // removes, so only the 32K row is pinned.)
            if ui < caches.len() && *cache == 32_000 {
                assert!(
                    rt[4] >= rt[2],
                    "{}: overlap capacity {} trails serialized {} at {}K",
                    cfg.sys.label(),
                    rt[4],
                    rt[2],
                    cache / 1000
                );
            }
        }
        summary.row(row);
        // The cluster-granularity acceptance pins, asserted on the
        // smoke headline (halved-HBM V-Rex48 + ReSV at 32K): spilling
        // and restoring at hash-cluster granularity must move strictly
        // fewer restore bytes, expose strictly less tier time, and
        // sustain at least the flat prefetch policy's real-time
        // capacity (>= the pinned 12 streams).
        if smoke && ui == 0 {
            assert!(
                unit.restored_bytes[3] < unit.restored_bytes[2],
                "cluster restore traffic {} B is not strictly below flat prefetch {} B",
                unit.restored_bytes[3],
                unit.restored_bytes[2]
            );
            assert!(
                unit.exposed_s[3] < unit.exposed_s[2],
                "cluster tier-exposed {:.3} s is not strictly below flat prefetch {:.3} s",
                unit.exposed_s[3],
                unit.exposed_s[2]
            );
            assert!(
                rt[3] >= rt[2] && rt[3] >= 12,
                "cluster real-time capacity {} trails flat prefetch {} (pin: >= 12)",
                rt[3],
                rt[2]
            );
            println!(
                "OK: cluster-granular tiering restores {:.2} GiB vs {:.2} GiB flat \
                 ({:.2} s vs {:.2} s exposed) at {} real-time streams.",
                unit.restored_bytes[3] as f64 / (1u64 << 30) as f64,
                unit.restored_bytes[2] as f64 / (1u64 << 30) as f64,
                unit.exposed_s[3],
                unit.exposed_s[2],
                rt[3]
            );
        }
    }

    banner("Real-time stream capacity by admission policy");
    summary.print();
    println!("\nBest tiering gain: {best_label}");
    println!(
        "Rejecting a session that would not fit device memory wastes the rest \
         of the hierarchy; spilling the coldest stream's resident KV to host \
         DRAM (or the SSD on the edge box) admits it instead, and speculative \
         prefetch hides most of the restore behind the queue wait and the \
         step's layer-by-layer compute."
    );
    assert!(
        best_gain >= 1,
        "tiered admission should beat reject-only somewhere in the sweep \
         (best gain {best_gain})"
    );
    println!(
        "OK: tiering admits {best_gain} more real-time stream(s) than \
         reject-only at equal device memory."
    );
    if overlap {
        println!(
            "OK: resource-timeline overlap sustains at least the serialized \
             real-time capacity on the headline V-Rex48+ReSV configuration."
        );
    }
}
