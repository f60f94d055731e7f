//! Property tests: packet-filter classification, link timing and byte
//! conservation, and HDM routing across the devices behind a switch.

use m2ndp_cxl::filter::Asid;
use m2ndp_cxl::{
    CxlLink, CxlLinkConfig, FilterEntry, HdmRouter, PacketFilter, PacketKind, HDM_PAGE_BYTES,
};
use m2ndp_sim::Frequency;
use proptest::prelude::*;

proptest! {
    /// The filter matches exactly the addresses inside a registered region.
    #[test]
    fn filter_matches_iff_in_range(base in 0u64..(1 << 40),
                                   size in 1u64..(1 << 20),
                                   probe in any::<u64>()) {
        let mut f = PacketFilter::new();
        let bound = base.saturating_add(size);
        prop_assume!(bound > base);
        f.insert(FilterEntry { base, bound, asid: Asid(7) }).expect("insert");
        let hit = f.matches(probe);
        if probe >= base && probe < bound {
            let m = hit.expect("must match inside region");
            prop_assert_eq!(m.offset, probe - base);
            prop_assert_eq!(m.asid, Asid(7));
        } else {
            prop_assert!(hit.is_none(), "false match at {probe:#x}");
        }
    }

    /// Non-overlapping regions for many processes never cross-match.
    #[test]
    fn filter_isolates_processes(n in 2u16..32, probe_proc in 0u16..32) {
        let n = n.max(2);
        let probe_proc = probe_proc % n;
        let mut f = PacketFilter::new();
        for p in 0..n {
            f.insert(FilterEntry {
                base: (p as u64) << 20,
                bound: ((p as u64) << 20) + 0x10000,
                asid: Asid(p),
            }).expect("insert");
        }
        let addr = ((probe_proc as u64) << 20) + 0x40;
        prop_assert_eq!(f.matches(addr).expect("in range").asid, Asid(probe_proc));
    }

    /// The arrival cycles `send_m2s`/`send_s2m` return obey the link's
    /// timing laws, per direction, for random sizes, gaps and interleavings:
    /// no packet arrives before its send cycle plus its own serialization
    /// and the one-way latency; arrivals never decrease; a packet sent while
    /// the gate is still busy arrives its serialization time after the
    /// previous one (within the gate's sub-cycle rounding); and each
    /// direction's byte count is the sum of its packets' wire bytes.
    #[test]
    fn link_arrivals_obey_latency_order_and_serialization(
        sends in prop::collection::vec((any::<bool>(), 0u32..4, 0u64..6), 1..200),
        ltu_log2 in 0u32..3,
    ) {
        let clock = Frequency::ghz(2.0);
        let cfg = CxlLinkConfig::default_150ns().with_ltu_scale(f64::from(1u32 << ltu_log2));
        let one_way = clock.cycles_from_ns(cfg.one_way_ns);
        let bytes_per_cycle = clock.bytes_per_cycle(cfg.bw_per_dir_bytes_per_sec);
        let mut link = CxlLink::new(cfg, clock);
        // Per direction (m2s, s2m): last arrival and summed wire bytes.
        let mut last: [Option<u64>; 2] = [None, None];
        let mut bytes = [0u64; 2];
        let mut now = 0u64;
        for (i, &(s2m, kind, gap)) in sends.iter().enumerate() {
            now += gap;
            let payload = 32 << (kind % 3);
            let kind = match (s2m, kind) {
                (false, 0) => PacketKind::MemRead,
                (false, _) => PacketKind::MemWrite,
                (true, 0) => PacketKind::NoDataResponse,
                (true, _) => PacketKind::DataResponse,
            };
            let wire = u64::from(kind.wire_bytes(payload));
            let ser = wire as f64 / bytes_per_cycle;
            let arrival = if s2m {
                link.send_s2m(now, kind, payload)
            } else {
                link.send_m2s(now, kind, payload)
            };
            let d = usize::from(s2m);
            prop_assert!(arrival >= now + ser.ceil() as u64 + one_way,
                "packet {i} arrived at {arrival}, before {now} + {ser} + {one_way}");
            if let Some(prev) = last[d] {
                prop_assert!(arrival >= prev, "packet {i} arrived at {arrival}, before {prev}");
                if now + one_way <= prev {
                    let spacing = arrival - prev;
                    prop_assert!(
                        spacing >= ser.floor() as u64 && spacing <= ser.ceil() as u64,
                        "packet {i} behind a busy gate: spacing {spacing} for {ser} cycles"
                    );
                }
            }
            last[d] = Some(arrival);
            bytes[d] += wire;
        }
        prop_assert_eq!(link.m2s_bytes(), bytes[0]);
        prop_assert_eq!(link.s2m_bytes(), bytes[1]);
    }

    /// Every address inside the routed HDM resolves to exactly one device
    /// (and addresses outside to none), for arbitrary device counts.
    #[test]
    fn router_routes_every_hdm_address_to_exactly_one_device(
        devices in 1usize..=64,
        pages_per_device in 1u64..64,
        probe in any::<u64>(),
    ) {
        let base = 4 * HDM_PAGE_BYTES;
        let r = HdmRouter::even_pages(base, pages_per_device * HDM_PAGE_BYTES, devices);
        let (lo, hi) = (r.span(0).0, r.span(devices - 1).1);
        // Clamp the probe into (and just around) the HDM window so the
        // in-range case is actually exercised.
        let probe = lo.saturating_sub(HDM_PAGE_BYTES) + probe % (hi - lo + 2 * HDM_PAGE_BYTES);
        let owners = (0..devices)
            .filter(|&d| {
                let (b, e) = r.span(d);
                (b..e).contains(&probe)
            })
            .count();
        if (lo..hi).contains(&probe) {
            prop_assert_eq!(owners, 1, "address {probe:#x} must have one owner");
            let d = r.device_of(probe).expect("routes");
            let (b, e) = r.span(d);
            prop_assert!((b..e).contains(&probe));
        } else {
            prop_assert_eq!(owners, 0);
            prop_assert!(r.device_of(probe).is_none());
        }
    }

    /// Device spans are contiguous, non-overlapping, equally sized, and
    /// page-granular for arbitrary device counts and capacities.
    #[test]
    fn router_spans_are_contiguous_nonoverlapping_pages(
        devices in 1usize..=64,
        bytes_per_device in 1u64..(1 << 26),
    ) {
        let r = HdmRouter::even_pages(0, bytes_per_device, devices);
        let per = r.span(0).1 - r.span(0).0;
        prop_assert_eq!(per % HDM_PAGE_BYTES, 0, "span must be whole pages");
        prop_assert!(per >= bytes_per_device, "rounding must never shrink");
        prop_assert!(per - bytes_per_device < HDM_PAGE_BYTES, "round up at most one page");
        for d in 0..devices {
            let (b, e) = r.span(d);
            prop_assert_eq!(b % HDM_PAGE_BYTES, 0, "device {d} base page-aligned");
            prop_assert_eq!(e - b, per, "device {d} span equal-sized");
            if d > 0 {
                prop_assert_eq!(r.span(d - 1).1, b, "device {d} contiguous");
            }
        }
    }

    /// 2 MB placement granularity: a page never straddles devices — every
    /// address of a page routes to the device owning the page's base.
    #[test]
    fn router_places_whole_pages(
        devices in 1usize..=64,
        pages_per_device in 1u64..64,
        page_sel in any::<u64>(),
        offset in 0u64..HDM_PAGE_BYTES,
    ) {
        let r = HdmRouter::even_pages(0, pages_per_device * HDM_PAGE_BYTES, devices);
        let total_pages = devices as u64 * pages_per_device;
        let page = page_sel % total_pages;
        let addr = page * HDM_PAGE_BYTES + offset;
        prop_assert_eq!(r.device_of(addr), r.device_of(page * HDM_PAGE_BYTES));
    }
}
