//! Multi-channel DRAM device: routes requests by the address mapping and
//! aggregates channel statistics.

use m2ndp_sim::{Cycle, Fingerprint, Frequency};

use crate::config::DramConfig;
use crate::controller::DramChannel;
use crate::mapping::AddressMapping;
use crate::req::MemReq;

/// A complete DRAM device: one controller per channel plus the interleaving
/// function.
#[derive(Debug)]
pub struct DramDevice {
    channels: Vec<DramChannel>,
    /// Bit `c` set while channel `c` may have queued or in-flight work
    /// (64 channels per word). A channel only leaves idle through
    /// [`DramDevice::enqueue`], so the per-cycle walks (`tick`,
    /// `drain_completed`, `next_event_cycle`) visit just the set bits — in
    /// channel-index order, same as the old full scans — instead of all
    /// channels.
    active: Vec<u64>,
    mapping: AddressMapping,
    config: DramConfig,
    owner: Frequency,
}

impl DramDevice {
    /// Builds the device in the `owner` clock domain.
    pub fn new(config: DramConfig, owner: Frequency) -> Self {
        let mapping = AddressMapping::for_config(&config);
        let channels = (0..config.channels)
            .map(|_| DramChannel::new(&config, owner))
            .collect();
        let words = (config.channels as usize).div_ceil(64);
        Self {
            channels,
            active: vec![0; words],
            mapping,
            config,
            owner,
        }
    }

    /// The channel an address routes to.
    pub fn channel_of(&self, addr: u64) -> u32 {
        self.mapping.channel(addr)
    }

    /// Whether the channel that `addr` routes to can accept a request.
    pub fn can_accept(&self, addr: u64) -> bool {
        self.channels[self.channel_of(addr) as usize].can_accept()
    }

    /// Enqueues a request on its home channel.
    ///
    /// # Errors
    /// Returns the request back if that channel's queue is full.
    pub fn enqueue(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        let coord = self.mapping.decompose(req.addr);
        let ch = coord.channel as usize;
        self.channels[ch].enqueue(now, req, coord)?;
        self.active[ch / 64] |= 1 << (ch % 64);
        Ok(())
    }

    /// Advances the busy channels one cycle (ticking an idle channel is a
    /// no-op, so skipping the clear bits is behavior-identical).
    pub fn tick(&mut self, now: Cycle) {
        for (w, &word) in self.active.iter().enumerate() {
            let mut mask = word;
            while mask != 0 {
                let c = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.channels[c].tick(now, 4);
            }
        }
    }

    /// Hands every request completed by `now` to `done` as
    /// `(channel, request)`, channel-major in channel-index order, and
    /// retires channels from the active mask as they drain. One pass over
    /// the busy channels: `done` must not enqueue DRAM work (it cannot —
    /// the device is mutably borrowed), so no channel gains a completion
    /// behind the pass.
    pub fn drain_completed(&mut self, now: Cycle, mut done: impl FnMut(usize, MemReq)) {
        for (w, word) in self.active.iter_mut().enumerate() {
            let mut mask = *word;
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let c = w * 64 + bit;
                let ch = &mut self.channels[c];
                while let Some(req) = ch.pop_completed(now) {
                    done(c, req);
                }
                if ch.is_idle() {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// Whether every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.active.iter().all(|&w| w == 0) || self.channels.iter().all(|c| c.is_idle())
    }

    /// Earliest pending event cycle across channels (for fast-forwarding).
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        let mut min = None;
        for (w, &word) in self.active.iter().enumerate() {
            let mut mask = word;
            while mask != 0 {
                let c = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(e) = self.channels[c].next_event_cycle() {
                    min = Some(min.map_or(e, |m: Cycle| m.min(e)));
                }
            }
        }
        min
    }

    /// Folds every channel's queued-request state into `fp`, in channel
    /// order (the channel index is part of the address mapping, so it is
    /// observable). The `active` mask is derived bookkeeping and does not
    /// contribute.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(self.channels.len() as u64);
        for ch in &self.channels {
            ch.queue_fingerprint(fp);
        }
    }

    /// Total data bytes moved across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bus_bytes()).sum()
    }

    /// Aggregate row-hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let (hits, total) = self.channels.iter().fold((0u64, 0u64), |(h, t), c| {
            (h + c.stats().row_hits.get(), t + c.stats().requests.get())
        });
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Achieved fraction of peak bandwidth over `elapsed` owner cycles.
    pub fn bw_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let achieved = self.total_bytes() as f64 / elapsed as f64; // B/cycle
        let peak = self
            .owner
            .bytes_per_cycle(self.config.peak_bw_bytes_per_sec);
        (achieved / peak).min(1.0)
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Access to a channel's stats (testing / reporting).
    pub fn channel(&self, idx: usize) -> &DramChannel {
        &self.channels[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqId;

    #[test]
    fn sequential_stream_saturates_most_of_peak_bw() {
        let owner = Frequency::ghz(2.0);
        let mut dev = DramDevice::new(DramConfig::lpddr5_cxl(), owner);
        let total_reqs: u64 = 16_384;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut now: Cycle = 0;
        let mut last_done = 0;
        while completed < total_reqs {
            while issued < total_reqs {
                let addr = issued * 32;
                if dev
                    .enqueue(now, MemReq::read(ReqId(issued), addr, 32))
                    .is_err()
                {
                    break;
                }
                issued += 1;
            }
            dev.tick(now);
            dev.drain_completed(now, |_, _| {
                completed += 1;
                last_done = now;
            });
            now += 1;
            assert!(now < 1_000_000, "deadlock at {completed}/{total_reqs}");
        }
        // 16384 * 32 B = 512 KiB at 204.8 B/cycle peak = 2560 cycles minimum.
        let util = dev.total_bytes() as f64 / (last_done as f64 * 204.8);
        assert!(
            util > 0.75,
            "sequential stream should approach peak BW, got {util:.2} ({last_done} cycles)"
        );
        assert!(
            dev.row_hit_rate() > 0.8,
            "row hit rate {}",
            dev.row_hit_rate()
        );
    }

    #[test]
    fn random_stream_is_slower_than_sequential() {
        use rand::Rng;
        let owner = Frequency::ghz(2.0);
        let run = |addrs: Vec<u64>| -> Cycle {
            let mut dev = DramDevice::new(DramConfig::lpddr5_cxl(), owner);
            let mut issued = 0usize;
            let mut completed = 0usize;
            let mut now = 0;
            while completed < addrs.len() {
                while issued < addrs.len() {
                    let r = MemReq::read(ReqId(issued as u64), addrs[issued], 32);
                    if dev.enqueue(now, r).is_err() {
                        break;
                    }
                    issued += 1;
                }
                dev.tick(now);
                dev.drain_completed(now, |_, _| completed += 1);
                now += 1;
                assert!(now < 10_000_000, "deadlock");
            }
            now
        };
        let n = 4096u64;
        let seq: Vec<u64> = (0..n).map(|i| i * 32).collect();
        let mut rng = m2ndp_sim::rng::seeded(11);
        let rnd: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 30) & !31).collect();
        let t_seq = run(seq);
        let t_rnd = run(rnd);
        assert!(
            t_rnd > t_seq,
            "random ({t_rnd}) should be slower than sequential ({t_seq})"
        );
    }

    #[test]
    fn requests_route_by_mapping() {
        let dev = DramDevice::new(DramConfig::lpddr5_cxl(), Frequency::ghz(2.0));
        for addr in (0..100_000u64).step_by(4096) {
            assert!(dev.channel_of(addr) < 32);
        }
    }
}
