//! Property tests: packet-filter classification, link conservation, and
//! HDM routing across the devices behind a switch.

use m2ndp_cxl::filter::Asid;
use m2ndp_cxl::{
    CxlLink, CxlLinkConfig, CxlMemPacket, FilterEntry, HdmRouter, PacketFilter, HDM_PAGE_BYTES,
};
use m2ndp_mem::{MemReq, ReqId, ReqSource};
use m2ndp_sim::Frequency;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

    /// Every packet sent over a link direction arrives exactly once, in
    /// order, and never before the one-way latency.
    #[test]
    fn link_delivers_everything_in_order(count in 1usize..100, gap in 0u64..10) {
        let mut link = CxlLink::new(CxlLinkConfig::default_150ns(), Frequency::ghz(2.0));
        let mut sent_at = Vec::new();
        let mut now = 0u64;
        for i in 0..count {
            let pkt = CxlMemPacket::read(MemReq::read(ReqId(i as u64), 0x1000, 64, ReqSource::Host));
            link.send_m2s(now, pkt);
            sent_at.push(now);
            now += gap;
        }
        let one_way = link.one_way_cycles();
        let mut received = 0usize;
        for t in 0..now + one_way + 10_000 {
            while let Some(pkt) = link.recv_m2s(t) {
                prop_assert_eq!(pkt.req.id, ReqId(received as u64), "out of order");
                prop_assert!(t >= sent_at[received] + one_way,
                    "arrived early: {t} < {} + {one_way}", sent_at[received]);
                received += 1;
            }
        }
        prop_assert_eq!(received, count);
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
