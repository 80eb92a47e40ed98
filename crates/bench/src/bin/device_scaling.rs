//! Multi-device scaling sweep: how many total real-time streams does a
//! [`DevicePool`] sustain as devices are added?
//!
//! `tier_capacity` pins the single-device headline (V-Rex48 + ReSV,
//! halved HBM, 32K-token windows: tiering admits 12 real-time streams
//! where reject-only admits 6). This sweep re-asks that question across
//! device counts 1/2/4/8 and every [`PlacementPolicy`]: arriving
//! sessions are *placed* on a device (admission becomes placement,
//! `vrex_system::placement`), and under [`PlacementPolicy::Migrate`]
//! off-home placements copy their resident context KV across the
//! NVLink fabric as contended resource-timeline work.
//!
//! The offered fleet scales with the pool — each device count is
//! driven at `base × devices` sessions — so the sweep answers
//! "capacity per pool", not "the same small fleet spread thinner".
//! The grids *nest* across device counts (every fleet size driven at
//! N devices is also driven at N + 1) so capacities compare fairly:
//! a policy that concentrates load (first-fit under tiered admission
//! fits against the whole hierarchy) still gets scored on the fleet
//! size it actually sustains. Capacity is the most *summed* real-time
//! streams any offered fleet achieved
//! ([`vrex_system::ShardedServeReport::real_time_sessions`]).
//!
//! Usage: `device_scaling [--smoke]` — `--smoke` runs the CI-sized
//! grid (device counts 1 and 2 only). Both modes assert the acceptance
//! headline: for every placement policy, 2-device capacity is at least
//! 1-device capacity on the 32K halved-HBM V-Rex48 + ReSV
//! configuration.
//!
//! Each device count runs on its own sweep worker ([`vrex_bench::par`])
//! and shares one [`StepPriceCache`] and one
//! [`vrex_system::ShardScratch`] across its 3 policies × fleet sizes
//! (recycled routing buffers); each serve runs its per-device loops on
//! one worker, so the sweep fans out at the unit level only. Tables
//! print in grid order afterwards and carry simulated facts only —
//! host time (the parallel fan-out's speedup, the routing share) is
//! measured by the repo benchmark's `pool_migrate` workload.

use vrex_bench::par::par_map;
use vrex_bench::report::{banner, f, Table};
use vrex_model::ModelConfig;
use vrex_system::{
    serve_sharded_with_cache_in, DevicePool, Method, PlacementPolicy, ServeConfig, ShardScratch,
    StepPriceCache, SystemModel,
};
use vrex_workload::traffic::TrafficConfig;

/// The tier-capacity headline device: V-Rex48 with half its HBM and a
/// 32K-token resident window, serving ReSV under tiered+prefetch
/// admission at 32K initial cache tokens.
fn headline_device() -> vrex_system::PlatformSpec {
    let mut p = vrex_system::PlatformSpec::vrex48();
    p.mem_capacity /= 2;
    p.hot_window_tokens = 32_768;
    p
}

/// Initial cache tokens for every session (the 32K headline point).
const CACHE_TOKENS: usize = 32_000;

/// Per-device offered fleet sizes; the pool is driven at
/// `base × devices` sessions so capacity scales with the pool.
const FLEETS_PER_DEVICE: &[usize] = &[4, 8, 12, 16];
const SMOKE_FLEETS_PER_DEVICE: &[usize] = &[4, 8, 12];

/// Best summed real-time streams one (devices, policy) cell achieved,
/// with the migration count of the run that achieved it.
struct Cell {
    capacity: usize,
    migrations: usize,
}

/// One device count's rendered table plus its per-policy cells.
struct UnitResult {
    devices: usize,
    table: Table,
    cells: Vec<Cell>,
}

/// The nested fleet grid for one device count: every `base × d`
/// product for `d` up to `devices`, deduplicated and sorted, so each
/// device count also drives every smaller count's fleet sizes.
fn fleet_grid(devices: usize, device_counts: &[usize], fleets_per_device: &[usize]) -> Vec<usize> {
    let mut fleets: Vec<usize> = device_counts
        .iter()
        .filter(|&&d| d <= devices)
        .flat_map(|&d| fleets_per_device.iter().map(move |&per| per * d))
        .collect();
    fleets.sort_unstable();
    fleets.dedup();
    fleets
}

fn sweep_unit(devices: usize, fleets: &[usize]) -> UnitResult {
    let model = ModelConfig::llama3_8b();
    let sys = SystemModel::new(headline_device(), Method::ReSV);
    let pool = DevicePool::homogeneous(headline_device(), devices);
    // One price cache per unit: every policy and fleet size replays the
    // same per-session cache trajectories on identical devices. The
    // shard scratch is recycled the same way — after the first serve
    // the routing pass reuses the grown per-device sub-fleet buffers.
    let mut prices = StepPriceCache::new(&sys, &model);
    let mut scratch = ShardScratch::new();
    let cfg = ServeConfig::real_time_tiered(CACHE_TOKENS);
    let mut t = Table::new([
        "Policy",
        "Offered",
        "Admitted",
        "Real-time",
        "Migrations",
        "Migrated GiB",
        "Fabric busy (ms)",
    ]);
    let mut cells = Vec::new();
    for &policy in &PlacementPolicy::ALL {
        let mut best: Option<Cell> = None;
        for &sessions in fleets {
            // Same traffic shape as the tier-capacity headline:
            // two-turn sessions arriving in a 10 s burst.
            let plans = TrafficConfig {
                sessions,
                turns: 2,
                arrival_spread_s: 10.0,
                seed: 42,
            }
            .generate();
            let r = serve_sharded_with_cache_in(
                &mut prices,
                &pool,
                &plans,
                &cfg,
                policy,
                1,
                &mut scratch,
            );
            let fabric = r.interconnect;
            t.row([
                policy.label().to_string(),
                sessions.to_string(),
                r.admitted().to_string(),
                format!("{}/{}", r.real_time_sessions(), r.admitted()),
                fabric.migrations.to_string(),
                f(fabric.migrated_bytes as f64 / (1u64 << 30) as f64, 2),
                f(fabric.busy_ps as f64 / 1e9, 2),
            ]);
            if best
                .as_ref()
                .is_none_or(|b| r.real_time_sessions() > b.capacity)
            {
                best = Some(Cell {
                    capacity: r.real_time_sessions(),
                    migrations: fabric.migrations,
                });
            }
        }
        cells.push(best.expect("at least one fleet size"));
    }
    UnitResult {
        devices,
        table: t,
        cells,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let device_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let fleets_per_device: &[usize] = if smoke {
        SMOKE_FLEETS_PER_DEVICE
    } else {
        FLEETS_PER_DEVICE
    };

    banner(if smoke {
        "Device-scaling capacity sweep (smoke)"
    } else {
        "Device-scaling capacity sweep"
    });
    println!(
        "V-Rex48 + ReSV, half HBM, 32K windows, tiered+prefetch admission, \
         {CACHE_TOKENS} initial cache tokens; fleets of {fleets_per_device:?} \
         sessions per device\n"
    );

    let units: Vec<(usize, Vec<usize>)> = device_counts
        .iter()
        .map(|&d| (d, fleet_grid(d, device_counts, fleets_per_device)))
        .collect();
    let results = par_map(&units, |(d, fleets)| sweep_unit(*d, fleets));

    let mut summary = Table::new([
        "Devices",
        "RT (first-fit)",
        "RT (load-balanced)",
        "RT (migrate)",
        "Migrations",
    ]);
    for unit in &results {
        banner(&format!(
            "{} device(s): V-Rex48 [half HBM, 32K window] pool",
            unit.devices
        ));
        unit.table.print();
        summary.row([
            unit.devices.to_string(),
            unit.cells[0].capacity.to_string(),
            unit.cells[1].capacity.to_string(),
            unit.cells[2].capacity.to_string(),
            unit.cells[2].migrations.to_string(),
        ]);
    }

    banner("Total real-time stream capacity by device count");
    summary.print();
    println!(
        "\nAdmission becomes placement: each arriving session is routed to one \
         device of the pool, every device runs the single-device tiered \
         scheduler unchanged, and under the migrate policy off-home placements \
         copy their resident context KV across the NVLink fabric first."
    );

    // The acceptance pin: adding the second device never shrinks
    // capacity, for any placement policy, on the 32K halved-HBM
    // V-Rex48 + ReSV headline.
    for (ci, policy) in PlacementPolicy::ALL.iter().enumerate() {
        let one = results[0].cells[ci].capacity;
        let two = results[1].cells[ci].capacity;
        assert!(
            two >= one,
            "{}: 2-device capacity {two} trails 1-device capacity {one}",
            policy.label()
        );
    }
    println!("OK: 2-device capacity >= 1-device capacity for every placement policy.");
}
