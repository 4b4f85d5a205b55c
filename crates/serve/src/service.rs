//! The sharded [`BandwidthService`]: per-shard worker threads draining
//! bounded request queues, burst-coalescing same-stream arrivals, and
//! re-selecting through each stream's [`SlidingWindowSelector`].

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use kcv_core::cv::{CvOptimum, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::PolynomialKernel;
use kcv_obs::{Counter, Recorder, Snapshot};

use crate::queue::{BoundedQueue, PushError};
use crate::{
    merge_snapshots, shard_of, Result, ServeConfig, ServeError, StreamId, StreamOutcome,
};

/// A single-use reply slot for acknowledged requests (open/close).
struct OneShot<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> OneShot<T> {
    fn new() -> Arc<Self> {
        Arc::new(Self { slot: Mutex::new(None), ready: Condvar::new() })
    }

    fn put(&self, value: T) {
        *self.slot.lock().expect("reply slot poisoned") = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> T {
        let mut slot = self.slot.lock().expect("reply slot poisoned");
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = self.ready.wait(slot).expect("reply slot poisoned");
        }
    }
}

/// One queued request to a shard worker.
enum Request {
    Open { stream: StreamId, reply: Arc<OneShot<Result<()>>> },
    Arrival { stream: StreamId, x: f64, y: f64, enqueued: Instant },
    Close { stream: StreamId, reply: Arc<OneShot<Result<StreamReport>>> },
}

impl Request {
    fn stream(&self) -> StreamId {
        match self {
            Request::Open { stream, .. }
            | Request::Arrival { stream, .. }
            | Request::Close { stream, .. } => *stream,
        }
    }
}

/// The outcome of one stream, as returned by an explicit close or listed
/// in the shutdown [`ServiceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The stream's id.
    pub stream: StreamId,
    /// The shard that owned it.
    pub shard: usize,
    /// Counters and final/fired optima.
    pub outcome: StreamOutcome,
}

/// Everything a graceful shutdown hands back.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Streams still open at shutdown, closed in id order per shard.
    pub streams: Vec<StreamReport>,
    /// Enqueue-to-completion latency of every applied arrival burst, one
    /// entry per arrival, in nanoseconds (unsorted; completion includes
    /// the burst's re-selection when one fired).
    pub latencies_nanos: Vec<u64>,
    /// Per-shard recorder snapshots, shard order.
    pub shard_snapshots: Vec<Snapshot>,
    /// The shard snapshots merged service-wide ([`merge_snapshots`]).
    pub metrics: Snapshot,
    /// Arrivals addressed to streams that were never opened (or already
    /// closed) — dropped, never applied.
    pub unknown_arrivals: u64,
}

/// Per-stream worker-side state.
struct StreamState<K> {
    selector: SlidingWindowSelector<K>,
    arrivals: u64,
    rejected: u64,
    reselects: u64,
    optima: Vec<CvOptimum>,
}

/// What a shard worker returns when it exits.
struct ShardOutput {
    reports: Vec<StreamReport>,
    latencies: Vec<u64>,
    snapshot: Snapshot,
    unknown_arrivals: u64,
}

struct Shard {
    queue: Arc<BoundedQueue<Request>>,
    recorder: Recorder,
    worker: Option<JoinHandle<ShardOutput>>,
}

/// The sharded multi-stream selection service; see the crate docs for the
/// architecture and the determinism/backpressure contracts.
pub struct BandwidthService<K> {
    shards: Vec<Shard>,
    config: ServeConfig,
    _kernel: PhantomData<K>,
}

impl<K: PolynomialKernel + Clone + Send + 'static> BandwidthService<K> {
    /// Starts `config.shards` worker threads, each owning a bounded queue
    /// and a private [`Recorder`]. Every stream opened later scores over
    /// `grid` with `kernel`.
    pub fn new(kernel: K, grid: BandwidthGrid, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|index| {
                let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
                let recorder = Recorder::new();
                let worker = std::thread::Builder::new()
                    .name(format!("kcv-serve-{index}"))
                    .spawn({
                        let queue = Arc::clone(&queue);
                        let recorder = recorder.clone();
                        let kernel = kernel.clone();
                        let grid = grid.clone();
                        let config = config.clone();
                        move || worker_loop(index, &queue, &recorder, kernel, grid, &config)
                    })
                    .expect("spawn shard worker");
                Shard { queue, recorder, worker: Some(worker) }
            })
            .collect();
        Ok(Self { shards, config, _kernel: PhantomData })
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn shard(&self, stream: StreamId) -> (usize, &Shard) {
        let index = shard_of(stream, self.shards.len());
        (index, &self.shards[index])
    }

    /// Opens a stream: a fresh sliding-window selector on its shard.
    /// Blocks until the shard acknowledges;
    /// [`ServeError::DuplicateStream`] if already open.
    pub fn open(&self, stream: StreamId) -> Result<()> {
        let (_, shard) = self.shard(stream);
        let reply = OneShot::new();
        shard
            .queue
            .push(Request::Open { stream, reply: Arc::clone(&reply) })
            .map_err(|_| ServeError::ShuttingDown)?;
        reply.wait()
    }

    /// Enqueues one arrival without blocking. [`ServeError::Overloaded`]
    /// when the shard's bounded queue is full — the request is shed and
    /// counted, never buffered beyond the bound.
    pub fn send(&self, stream: StreamId, x: f64, y: f64) -> Result<()> {
        let _enqueue = kcv_obs::phase("serve.enqueue");
        let (index, shard) = self.shard(stream);
        shard
            .queue
            .try_push(Request::Arrival { stream, x, y, enqueued: Instant::now() })
            .map_err(|(_, e)| match e {
                PushError::Full => ServeError::Overloaded { shard: index },
                PushError::Closed => ServeError::ShuttingDown,
            })
    }

    /// Enqueues one arrival, waiting while the shard's queue is full
    /// (lossless replay instead of shedding).
    pub fn send_blocking(&self, stream: StreamId, x: f64, y: f64) -> Result<()> {
        let _enqueue = kcv_obs::phase("serve.enqueue");
        let (_, shard) = self.shard(stream);
        shard
            .queue
            .push(Request::Arrival { stream, x, y, enqueued: Instant::now() })
            .map_err(|_| ServeError::ShuttingDown)
    }

    /// Closes a stream after all its queued arrivals: runs a final
    /// re-selection over the surviving window, evicts the selector, and
    /// returns the stream's report.
    pub fn close(&self, stream: StreamId) -> Result<StreamReport> {
        let (_, shard) = self.shard(stream);
        let reply = OneShot::new();
        shard
            .queue
            .push(Request::Close { stream, reply: Arc::clone(&reply) })
            .map_err(|_| ServeError::ShuttingDown)?;
        reply.wait()
    }

    /// The live metrics endpoint: every shard recorder's snapshot merged
    /// service-wide (counters sum, `queue_high_water` by max). Callable
    /// at any time; empty with the `metrics` feature off.
    pub fn metrics(&self) -> Snapshot {
        let snaps: Vec<Snapshot> = self.shards.iter().map(|s| s.recorder.snapshot()).collect();
        merge_snapshots(&snaps)
    }

    /// Graceful shutdown: closes every queue (new requests are refused),
    /// lets each worker drain its backlog, closes surviving streams in id
    /// order, and returns the merged report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.shutdown_inner().expect("service not yet shut down")
    }

    fn shutdown_inner(&mut self) -> Option<ServiceReport> {
        if self.shards.iter().all(|s| s.worker.is_none()) {
            return None;
        }
        for shard in &self.shards {
            shard.queue.close();
        }
        let mut report = ServiceReport {
            streams: Vec::new(),
            latencies_nanos: Vec::new(),
            shard_snapshots: Vec::new(),
            metrics: Snapshot::default(),
            unknown_arrivals: 0,
        };
        for shard in &mut self.shards {
            let Some(worker) = shard.worker.take() else { continue };
            let out = worker.join().expect("shard worker panicked");
            report.streams.extend(out.reports);
            report.latencies_nanos.extend(out.latencies);
            report.shard_snapshots.push(out.snapshot);
            report.unknown_arrivals += out.unknown_arrivals;
        }
        report.streams.sort_by_key(|r| r.stream);
        report.metrics = merge_snapshots(&report.shard_snapshots);
        Some(report)
    }
}

impl<K> Drop for BandwidthService<K> {
    fn drop(&mut self) {
        // Graceful even when the caller forgot to shut down: close the
        // queues and wait the workers out (their output is discarded).
        for shard in &self.shards {
            shard.queue.close();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// One worker thread: drain → group per stream → burst-apply → (maybe
/// conflated) re-select, all inside the shard's recorder scope.
fn worker_loop<K: PolynomialKernel + Clone>(
    shard: usize,
    queue: &BoundedQueue<Request>,
    recorder: &Recorder,
    kernel: K,
    grid: BandwidthGrid,
    config: &ServeConfig,
) -> ShardOutput {
    let scope = recorder.install();
    let mut streams: HashMap<StreamId, StreamState<K>> = HashMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut unknown_arrivals = 0u64;

    loop {
        let batch = queue.drain(usize::MAX);
        if batch.is_empty() {
            break; // closed and fully drained
        }
        let _batch_phase = kcv_obs::phase("serve.batch");
        kcv_obs::add(Counter::RequestsServed, batch.len() as u64);
        kcv_obs::record_max(Counter::QueueHighWater, queue.high_water());
        kcv_obs::add(Counter::ShedRequests, queue.take_shed());

        // Group the batch per stream, preserving each stream's own order
        // (streams are independent, so cross-stream order is free to
        // change — that is what lets interleaved arrivals still coalesce).
        let mut order: Vec<StreamId> = Vec::new();
        let mut by_stream: HashMap<StreamId, Vec<Request>> = HashMap::new();
        for req in batch {
            let slot = by_stream.entry(req.stream()).or_default();
            if slot.is_empty() {
                order.push(req.stream());
            }
            slot.push(req);
        }
        for id in order {
            let requests = by_stream.remove(&id).expect("grouped above");
            process_stream_requests(
                shard,
                id,
                requests,
                &mut streams,
                &mut latencies,
                &mut unknown_arrivals,
                &kernel,
                &grid,
                config,
            );
        }
    }

    // Shutdown: close every surviving stream, id order for determinism.
    let mut ids: Vec<StreamId> = streams.keys().copied().collect();
    ids.sort_unstable();
    let reports = ids
        .into_iter()
        .map(|id| {
            let state = streams.remove(&id).expect("listed above");
            StreamReport { stream: id, shard, outcome: close_state(state, config) }
        })
        .collect();
    kcv_obs::add(Counter::ShedRequests, queue.take_shed());
    drop(scope);
    ShardOutput { reports, latencies, snapshot: recorder.snapshot(), unknown_arrivals }
}

/// Applies one stream's slice of a drained batch: opens/closes in place,
/// arrivals in coalesced bursts.
#[allow(clippy::too_many_arguments)] // worker-internal plumbing
fn process_stream_requests<K: PolynomialKernel + Clone>(
    shard: usize,
    id: StreamId,
    requests: Vec<Request>,
    streams: &mut HashMap<StreamId, StreamState<K>>,
    latencies: &mut Vec<u64>,
    unknown_arrivals: &mut u64,
    kernel: &K,
    grid: &BandwidthGrid,
    config: &ServeConfig,
) {
    let mut i = 0;
    while i < requests.len() {
        match &requests[i] {
            Request::Open { reply, .. } => {
                let result = match streams.entry(id) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        Err(ServeError::DuplicateStream(id))
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => SlidingWindowSelector::new(
                        kernel.clone(),
                        grid.clone(),
                        config.window,
                        config.cadence,
                    )
                    .map(|selector| {
                        slot.insert(StreamState {
                            selector,
                            arrivals: 0,
                            rejected: 0,
                            reselects: 0,
                            optima: Vec::new(),
                        });
                    })
                    .map_err(Into::into),
                };
                reply.put(result);
                i += 1;
            }
            Request::Close { reply, .. } => {
                let result = match streams.remove(&id) {
                    Some(state) => Ok(StreamReport {
                        stream: id,
                        shard,
                        outcome: close_state(state, config),
                    }),
                    None => Err(ServeError::UnknownStream(id)),
                };
                reply.put(result);
                i += 1;
            }
            Request::Arrival { .. } => {
                let mut j = i;
                while j < requests.len() && matches!(requests[j], Request::Arrival { .. }) {
                    j += 1;
                }
                apply_burst(&requests[i..j], streams.get_mut(&id), latencies, unknown_arrivals, config);
                i = j;
            }
        }
    }
}

/// One window-update burst: every arrival folds in via `push_deferred`; with
/// conflation the cadence boundaries the burst crossed fund a single
/// trailing `reselect()`, without it the worker re-selects exactly where a
/// sequential `push` would have.
fn apply_burst<K: PolynomialKernel + Clone>(
    burst: &[Request],
    state: Option<&mut StreamState<K>>,
    latencies: &mut Vec<u64>,
    unknown_arrivals: &mut u64,
    config: &ServeConfig,
) {
    match state {
        None => *unknown_arrivals += burst.len() as u64,
        Some(state) => {
            let mut due_any = false;
            for req in burst {
                let Request::Arrival { x, y, .. } = req else { unreachable!("burst of arrivals") };
                match state.selector.push_deferred(*x, *y) {
                    Ok(due) => {
                        state.arrivals += 1;
                        if due {
                            if config.conflate {
                                due_any = true;
                            } else {
                                fire_reselect(state, config);
                            }
                        }
                    }
                    Err(_) => state.rejected += 1, // window untouched (PR 10 contract)
                }
            }
            if due_any {
                fire_reselect(state, config);
            }
            if burst.len() > 1 {
                kcv_obs::add(Counter::CoalescedArrivals, burst.len() as u64 - 1);
            }
        }
    }
    let done = Instant::now();
    for req in burst {
        let Request::Arrival { enqueued, .. } = req else { unreachable!("burst of arrivals") };
        latencies.push(done.duration_since(*enqueued).as_nanos() as u64);
    }
}

fn fire_reselect<K: PolynomialKernel + Clone>(state: &mut StreamState<K>, config: &ServeConfig) {
    let _reselect = kcv_obs::phase("serve.reselect");
    if let Ok(opt) = state.selector.reselect_now() {
        state.reselects += 1;
        if config.log_optima {
            state.optima.push(opt);
        }
    }
}

/// Close semantics shared by explicit close and shutdown: a final
/// re-selection over the surviving window (when ≥ 2 observations live),
/// then the counters roll up into the outcome.
fn close_state<K: PolynomialKernel + Clone>(
    mut state: StreamState<K>,
    _config: &ServeConfig,
) -> StreamOutcome {
    let final_optimum = if state.selector.len() >= 2 {
        let _reselect = kcv_obs::phase("serve.reselect");
        match state.selector.reselect_now() {
            Ok(opt) => {
                state.reselects += 1;
                Some(opt)
            }
            Err(_) => state.selector.current(),
        }
    } else {
        state.selector.current()
    };
    StreamOutcome {
        final_optimum,
        arrivals: state.arrivals,
        rejected: state.rejected,
        reselects: state.reselects,
        optima: state.optima,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::kernels::Epanechnikov;
    use kcv_core::util::SplitMix64;

    fn grid() -> BandwidthGrid {
        BandwidthGrid::log(0.01, 0.5, 12).unwrap()
    }

    #[test]
    fn open_push_close_round_trip() {
        let config = ServeConfig {
            conflate: false,
            log_optima: true,
            ..ServeConfig::new(2, 64, 16)
        };
        let service = BandwidthService::new(Epanechnikov, grid(), config).unwrap();
        service.open(7).unwrap();
        assert!(matches!(service.open(7), Err(ServeError::DuplicateStream(7))));
        let mut rng = SplitMix64::new(41);
        for _ in 0..80 {
            let x = rng.next_f64();
            let y = 0.5 * x + 10.0 * x * x + 0.5 * rng.next_f64();
            service.send_blocking(7, x, y).unwrap();
        }
        let report = service.close(7).unwrap();
        assert_eq!(report.stream, 7);
        assert_eq!(report.outcome.arrivals, 80);
        assert_eq!(report.outcome.rejected, 0);
        // 80 arrivals at cadence 16 → 5 cadence firings plus the final
        // close re-selection.
        assert_eq!(report.outcome.reselects, 6);
        assert_eq!(report.outcome.optima.len(), 5);
        assert!(report.outcome.final_optimum.is_some());
        assert!(matches!(service.close(7), Err(ServeError::UnknownStream(7))));
        let report = service.shutdown();
        assert!(report.streams.is_empty());
        assert_eq!(report.unknown_arrivals, 0);
    }

    #[test]
    fn non_finite_arrivals_are_rejected_not_applied() {
        let config = ServeConfig { conflate: false, ..ServeConfig::new(1, 32, 8) };
        let service = BandwidthService::new(Epanechnikov, grid(), config).unwrap();
        service.open(1).unwrap();
        let mut rng = SplitMix64::new(42);
        for i in 0..40 {
            if i % 10 == 3 {
                service.send_blocking(1, f64::NAN, 1.0).unwrap();
            } else {
                service.send_blocking(1, rng.next_f64(), rng.next_f64()).unwrap();
            }
        }
        let report = service.close(1).unwrap();
        assert_eq!(report.outcome.arrivals, 36);
        assert_eq!(report.outcome.rejected, 4);
        assert!(report.outcome.final_optimum.is_some());
        drop(service);
    }

    #[test]
    fn arrivals_to_unopened_streams_are_dropped_and_counted() {
        let service =
            BandwidthService::new(Epanechnikov, grid(), ServeConfig::new(2, 32, 8)).unwrap();
        for i in 0..5 {
            service.send_blocking(99, i as f64 / 5.0, 0.0).unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.unknown_arrivals, 5);
        assert!(report.streams.is_empty());
    }

    #[test]
    fn shutdown_closes_surviving_streams_in_id_order() {
        let service =
            BandwidthService::new(Epanechnikov, grid(), ServeConfig::new(4, 32, 8)).unwrap();
        let mut rng = SplitMix64::new(43);
        for id in [11u64, 3, 27, 8] {
            service.open(id).unwrap();
            for _ in 0..20 {
                service.send_blocking(id, rng.next_f64(), rng.next_f64()).unwrap();
            }
        }
        let report = service.shutdown();
        let ids: Vec<StreamId> = report.streams.iter().map(|r| r.stream).collect();
        assert_eq!(ids, vec![3, 8, 11, 27]);
        for r in &report.streams {
            assert_eq!(r.outcome.arrivals, 20);
            assert!(r.outcome.final_optimum.is_some());
        }
        assert_eq!(report.latencies_nanos.len(), 80);
        assert_eq!(report.shard_snapshots.len(), 4);
    }

    #[test]
    fn requests_after_shutdown_report_shutting_down() {
        let service =
            BandwidthService::new(Epanechnikov, grid(), ServeConfig::new(1, 8, 4)).unwrap();
        let queue = Arc::clone(&service.shards[0].queue);
        queue.close();
        assert!(matches!(service.send(1, 0.1, 0.2), Err(ServeError::ShuttingDown)));
        assert!(matches!(service.open(1), Err(ServeError::ShuttingDown)));
    }
}
