//! [`TimedServe`]: a [`ServeWorkload`] wrapper that stamps the calls
//! `serve::run` makes into the workload, timing each request's host cost
//! from outside the serving loop.
//!
//! On a shard thread, `launch_args` and `verify` for one request are
//! consecutive around the device launch and `run_until_finished`, so one
//! thread-local pair of stamps carries a request from the first call to the
//! second; no map from request to start time is needed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use m2ndp::core::{CxlM2ndpDevice, LaunchArgs};
use m2ndp::host::serve::{Request, ServeWorkload};
use m2ndp::sim::rng::StdRng;

thread_local! {
    /// `launch_args` entry and exit of the request in flight on this thread.
    static LAUNCH: Cell<Option<(f64, f64)>> = const { Cell::new(None) };
}

/// Host timestamps (seconds since the recorder epoch) of one served request:
/// `launch_args` entry, `launch_args` exit, `verify` entry, `verify` exit.
/// Between the second and third the serving loop launched the kernel and
/// ran the device until it finished.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The request.
    pub req: Request,
    /// The four stamps.
    pub t: [f64; 4],
}

/// Wraps a serving workload and records a [`Stamp`] per request, one
/// uncontended list per device (each device's shard runs on one thread).
#[derive(Debug)]
pub struct TimedServe<W> {
    /// The wrapped workload.
    pub inner: W,
    epoch: Instant,
    stamps: Vec<Mutex<Vec<Stamp>>>,
    verify_errors: AtomicU64,
}

impl<W> TimedServe<W> {
    /// Wraps `inner` for a backend of `devices` devices; stamps are seconds
    /// since `epoch`.
    pub fn new(inner: W, devices: usize, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            stamps: (0..devices).map(|_| Mutex::new(Vec::new())).collect(),
            verify_errors: AtomicU64::new(0),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Each device's stamps, in the order the device served its requests.
    pub fn take_stamps(&mut self) -> Vec<Vec<Stamp>> {
        self.stamps
            .iter_mut()
            .map(|m| std::mem::take(m.get_mut().expect("no shard panicked holding its stamps")))
            .collect()
    }

    /// Verifications that returned an error.
    pub fn verify_errors(&self) -> u64 {
        self.verify_errors.load(Ordering::Relaxed)
    }
}

impl<W: ServeWorkload> ServeWorkload for TimedServe<W> {
    fn sample_key(&mut self, tenant: u16, rng: &mut StdRng) -> u64 {
        self.inner.sample_key(tenant, rng)
    }

    fn route_addr(&self, key: u64, devices: usize) -> u64 {
        self.inner.route_addr(key, devices)
    }

    fn launch_args(&self, req: &Request, dev: usize) -> LaunchArgs {
        let t0 = self.now();
        let args = self.inner.launch_args(req, dev);
        LAUNCH.set(Some((t0, self.now())));
        args
    }

    fn verify(&self, req: &Request, dev: usize, device: &CxlM2ndpDevice) -> Result<(), String> {
        let t2 = self.now();
        let result = self.inner.verify(req, dev, device);
        let t3 = self.now();
        if result.is_err() {
            self.verify_errors.fetch_add(1, Ordering::Relaxed);
        }
        let (t0, t1) = LAUNCH
            .take()
            .expect("launch_args precedes verify on the shard thread");
        self.stamps[dev]
            .lock()
            .expect("stamp lists are never held across a panic")
            .push(Stamp {
                req: *req,
                t: [t0, t1, t2, t3],
            });
        result
    }

    fn replicated(&self) -> bool {
        self.inner.replicated()
    }
}
