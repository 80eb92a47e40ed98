//! Device-to-device interconnect model (an NVLink fabric).
//!
//! Scale-out serving shards a session fleet across several accelerator
//! devices; rebalancing then moves resident KV blocks *between* devices
//! over NVLink. The fabric behaves like the storage links the
//! simulator already models: a fixed raw bandwidth degraded
//! by per-packet framing and per-descriptor setup cost. So the fabric
//! link is priced through the exact same math as [`crate::pcie`] —
//! [`PcieConfig::transfer_ps`] — with NVLink-flavoured constants, and
//! each device's fabric port becomes a named [`Engine`] resource whose
//! contention is resolved by the resource timeline, not by a formula.
//!
//! Cross-device KV migrations are background work: a copy appends to
//! the *source* port after everything already queued there (the
//! lowest-priority discipline the tiered-memory writeback path uses),
//! and mirrors onto the destination port so both directions of the
//! fabric account the bytes.

use crate::engine::{Engine, ResourceId};
use crate::pcie::PcieConfig;

/// Static configuration of a device-to-device fabric.
///
/// The per-device link reuses [`PcieConfig`] so transfer pricing is the
/// proven link math: `transfer_ps` charges wire time at raw bandwidth
/// plus per-packet framing plus per-DMA-descriptor setup.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectConfig {
    /// Human-readable fabric name (e.g. `NVLink4`).
    pub name: &'static str,
    /// Per-device port: raw bandwidth, framing overhead, DMA setup.
    pub link: PcieConfig,
}

impl InterconnectConfig {
    /// NVLink 4 — 18 links × 25 GB/s = 450 GB/s per device port, with
    /// 16 B of flit framing per 256 B payload and a 0.1 µs copy-engine
    /// descriptor setup per DMA chunk.
    pub fn nvlink4() -> Self {
        Self {
            name: "NVLink4",
            link: PcieConfig {
                name: "NVLink4",
                lanes: 18,
                lane_bytes_per_s: 25.0e9,
                max_payload: 256,
                tlp_overhead: 16,
                dma_setup_ps: 100_000,
                w_per_lane: 1.3,
            },
        }
    }

    /// Duration (ps) of moving `total_bytes` across one fabric port in
    /// DMA chunks of `chunk_bytes`. Delegates to the PCIe link math.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0` while `total_bytes > 0`.
    pub fn transfer_ps(&self, total_bytes: u64, chunk_bytes: u64) -> u64 {
        self.link.transfer_ps(total_bytes, chunk_bytes)
    }
}

/// The scheduled endpoints of one device-to-device copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopySpan {
    /// Instant the copy occupies the source port from.
    pub start_ps: u64,
    /// Instant both ports are released and the bytes are usable at the
    /// destination.
    pub end_ps: u64,
}

/// Per-device fabric ports installed as named [`Engine`] resources
/// (`<fabric>-d<idx>`), so cross-device copies contend on the same
/// timeline as every other priced transfer.
#[derive(Debug)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    ports: Vec<ResourceId>,
}

impl Interconnect {
    /// Registers one fabric port per device on `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn install(engine: &mut Engine, cfg: InterconnectConfig, devices: usize) -> Self {
        assert!(devices >= 1, "a fabric needs at least one device port");
        let ports = (0..devices)
            .map(|d| engine.add_resource(&format!("{}-d{d}", cfg.name)))
            .collect();
        Self { cfg, ports }
    }

    /// The [`Engine`] resource backing device `d`'s fabric port.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn port(&self, d: usize) -> ResourceId {
        self.ports[d]
    }

    /// Schedules a `from → to` copy of `bytes` decided at `now_ps`, as
    /// lowest-priority work: the egress leg appends to the source port
    /// at `max(now, port frontier)` — behind everything already queued,
    /// exactly the discipline background tier writebacks use — and the
    /// ingress leg mirrors the same window onto the destination port.
    /// Returns the copy's span; `end_ps` is when the destination copy
    /// of the KV block becomes usable.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, if either index is out of range, or if
    /// `chunk_bytes == 0` while `bytes > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &self,
        engine: &mut Engine,
        from: usize,
        to: usize,
        bytes: u64,
        chunk_bytes: u64,
        now_ps: u64,
        tag: &'static str,
    ) -> CopySpan {
        assert_ne!(from, to, "cross-device copy must change devices");
        let dur = self.cfg.transfer_ps(bytes, chunk_bytes);
        let src = self.port(from);
        let earliest = now_ps.max(engine.next_free(src));
        let egress = engine.schedule_after(src, earliest, dur, &[], tag, bytes);
        let ingress = engine.reserve_after(self.port(to), engine.start_of(egress), dur, tag, bytes);
        CopySpan {
            start_ps: engine.start_of(egress),
            end_ps: engine.end_of(egress).max(engine.end_of(ingress)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::seconds_to_ps;

    #[test]
    fn nvlink_prices_through_the_pcie_link_math() {
        // 1 MiB in 256 KiB chunks: 4 chunks, 4096 payload TLPs + 4
        // boundary TLPs, 16 B framing each, 450 GB/s raw, 0.1 µs setup
        // per chunk — identical formula to PcieConfig::transfer_ps.
        let ic = InterconnectConfig::nvlink4();
        let bytes = 1u64 << 20;
        let chunk = 256u64 << 10;
        let tlps = bytes.div_ceil(256) + 4;
        let wire = bytes + tlps * 16;
        let expected = seconds_to_ps(wire as f64 / 450.0e9) + 4 * 100_000;
        assert_eq!(ic.transfer_ps(bytes, chunk), expected);
        assert_eq!(
            ic.transfer_ps(bytes, chunk),
            ic.link.transfer_ps(bytes, chunk)
        );
    }

    #[test]
    fn ports_are_named_engine_resources() {
        let mut e = Engine::new();
        let ic = Interconnect::install(&mut e, InterconnectConfig::nvlink4(), 4);
        assert_eq!(ic.ports.len(), 4);
        assert_eq!(e.resource_name(ic.port(0)), "NVLink4-d0");
        assert_eq!(e.resource_name(ic.port(3)), "NVLink4-d3");
    }

    #[test]
    fn copy_occupies_both_ports_for_the_full_window() {
        let mut e = Engine::new();
        let ic = Interconnect::install(&mut e, InterconnectConfig::nvlink4(), 2);
        let bytes = 4u64 << 20;
        let chunk = 256u64 << 10;
        let span = ic.copy(&mut e, 0, 1, bytes, chunk, 0, "migrate");
        let dur = InterconnectConfig::nvlink4().transfer_ps(bytes, chunk);
        assert_eq!(
            span,
            CopySpan {
                start_ps: 0,
                end_ps: dur
            }
        );
        assert_eq!(e.busy_time(ic.port(0)), dur);
        assert_eq!(e.busy_time(ic.port(1)), dur);
    }

    #[test]
    fn copy_decided_now_lands_behind_queued_work() {
        let mut e = Engine::new();
        let ic = Interconnect::install(&mut e, InterconnectConfig::nvlink4(), 2);
        // Pre-queue 1 ms of traffic on the source port.
        let busy = e.schedule(ic.port(0), 1_000_000_000, &[], "prior", 0);
        let span = ic.copy(&mut e, 0, 1, 1 << 20, 256 << 10, 0, "migrate");
        assert_eq!(span.start_ps, e.end_of(busy));
    }

    #[test]
    #[should_panic(expected = "must change devices")]
    fn self_copy_is_rejected() {
        let mut e = Engine::new();
        let ic = Interconnect::install(&mut e, InterconnectConfig::nvlink4(), 2);
        let _ = ic.copy(&mut e, 1, 1, 4096, 4096, 0, "migrate");
    }
}
