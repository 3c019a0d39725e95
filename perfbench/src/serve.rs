//! `serve`: a `batched-two-choice` allocator over n = 2¹⁶ bins behind
//! `serve_ingest` (the server of `pba-run serve --listen`) on one
//! Unix-socket connection. The allocator is pre-filled to 2²⁰ resident
//! balls before the clock starts; then batches of 4,096 arrivals and
//! 4,096 random departures are sent open-loop at a fixed rate, timed from
//! each batch's due time to its ack, and a closed-loop phase measures
//! capacity. The only workload that exercises `stream` and `ingest`.

use std::hint::black_box;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pba_stream::ingest::{recv_frame, send_frame, serve_ingest};
use pba_stream::{
    Batch, IngestFrame, IngestSummary, PolicyKind, StreamAllocator, Workload, WorkloadCfg,
};

use crate::harness::{median, peak_rss_mb, quantile, repeated_setup, Args, Report, Size};
use crate::layers::LayerValues;
use crate::sink::LayerSink;

const POLICY: PolicyKind = PolicyKind::BatchedTwoChoice;

/// The open-loop rate in batches per second, fixed so that later changes
/// are measured at one load: about half the closed-loop capacity of the
/// code this benchmark was written against (460 to 570 batches/s on a
/// 2-vCPU Xeon VM).
const RATE: f64 = 250.0;

/// The run alternates this many open-loop and closed-loop segments.
const SEGMENTS: usize = 4;

struct Shape {
    bins: u32,
    batch: u64,
    prefill: u64,
    rate: f64,
    min_open: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            bins: 1 << 16,
            batch: 4096,
            prefill: 1 << 20,
            rate: RATE,
            min_open: 1000,
        },
        Size::Tiny => Shape {
            bins: 1 << 8,
            batch: 64,
            prefill: 1 << 12,
            rate: 2000.0,
            min_open: 50,
        },
    }
}

/// Everything generated before the clock starts.
struct Inputs {
    prefill: Vec<Batch>,
    /// The steady-state batches, encoded as batch frames.
    frames: Vec<Vec<u8>>,
    server: Server,
}

/// The server thread and the client's end of its socket.
struct Server {
    client: UnixStream,
    thread: JoinHandle<Result<IngestSummary, String>>,
}

fn allocator(shape: &Shape, seed: u64, prefill: &[Batch]) -> StreamAllocator {
    let mut alloc = StreamAllocator::new(shape.bins, seed, POLICY);
    for batch in prefill {
        alloc.ingest(batch);
    }
    alloc
}

fn hello(shape: &Shape, seed: u64) -> IngestFrame {
    IngestFrame::Hello {
        n: shape.bins,
        seed,
        policy: POLICY.name().into(),
    }
}

fn setup(shape: &Shape, seed: u64, steady_batches: usize) -> Inputs {
    let mut traffic = Workload::new(WorkloadCfg::uniform(shape.batch), seed);
    let prefill: Vec<Batch> = (0..shape.prefill / shape.batch)
        .map(|_| traffic.next_batch())
        .collect();
    traffic.set_churn(1.0);
    let frames = (0..steady_batches as u64)
        .map(|batch| {
            let payload = traffic.next_batch();
            IngestFrame::Batch { batch, payload }.encode()
        })
        .collect();

    let mut alloc = allocator(shape, seed, &prefill);
    let (client, server_end) = UnixStream::pair().expect("socketpair");
    let thread = std::thread::spawn(move || {
        let mut writer = server_end.try_clone().map_err(|e| e.to_string())?;
        let mut reader = server_end;
        serve_ingest(&mut reader, &mut writer, &mut alloc)
    });
    let mut server = Server { client, thread };
    send_frame(&mut server.client, &hello(shape, seed)).expect("hello");
    match recv_frame(&mut server.client) {
        Ok(Some(IngestFrame::HelloOk)) => {}
        other => panic!("server refused the hello: {other:?}"),
    }
    Inputs {
        prefill,
        frames,
        server,
    }
}

impl Server {
    /// Send `done`, read the summary and join the server thread.
    fn finish(mut self) -> (Option<IngestSummary>, Result<IngestSummary, String>) {
        let _ = send_frame(&mut self.client, &IngestFrame::Done);
        let summary = match recv_frame(&mut self.client) {
            Ok(Some(IngestFrame::Summary {
                batches,
                balls,
                resident,
                max_load,
                gap,
            })) => Some(IngestSummary {
                batches,
                balls,
                resident,
                max_load,
                gap,
            }),
            _ => None,
        };
        let served = self
            .thread
            .join()
            .unwrap_or_else(|_| Err("server thread panicked".into()));
        (summary, served)
    }
}

/// One ack as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ack {
    batch: u64,
    resident: u64,
    max_load: u64,
}

fn read_ack(client: &mut UnixStream) -> Option<Ack> {
    match recv_frame(client) {
        Ok(Some(IngestFrame::Ack {
            batch,
            resident,
            max_load,
        })) => Some(Ack {
            batch,
            resident,
            max_load,
        }),
        _ => None,
    }
}

/// Open loop: a sender thread writes frame `i` at `start + i / rate`
/// whatever the acks do; this thread reads the acks. Returns each
/// batch's due-to-ack latency (seconds, infinite when its ack never
/// came), how late each send was, and the acks.
fn open_loop(
    client: &mut UnixStream,
    frames: &[Vec<u8>],
    rate: f64,
) -> (Vec<f64>, Vec<f64>, Vec<Option<Ack>>) {
    let mut writer = client.try_clone().expect("clone socket");
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (late, acks, acked) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(frames.len());
            for (i, frame) in frames.iter().enumerate() {
                let due = due(i);
                wait_until(due);
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                if writer.write_all(frame).is_err() {
                    break;
                }
            }
            late
        });
        let mut acks = Vec::with_capacity(frames.len());
        let mut acked = Vec::with_capacity(frames.len());
        for _ in frames {
            let ack = read_ack(client);
            acked.push(Instant::now());
            let stop = ack.is_none();
            acks.push(ack);
            if stop {
                break;
            }
        }
        (sender.join().expect("sender thread"), acks, acked)
    });
    let latency = (0..frames.len())
        .map(|i| match acks.get(i) {
            Some(Some(_)) => acked[i].saturating_duration_since(due(i)).as_secs_f64(),
            _ => f64::INFINITY,
        })
        .collect();
    let mut acks = acks;
    acks.resize(frames.len(), None);
    (latency, late, acks)
}

/// Sleep to just short of `deadline`, then spin the rest: a plain sleep
/// overshoots by the timer slack.
fn wait_until(deadline: Instant) {
    let slack = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > slack {
            std::thread::sleep(left - slack);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Closed loop: send, wait for the ack, repeat. Returns round trips.
fn closed_loop(
    client: &mut UnixStream,
    frames: &[Vec<u8>],
    acks: &mut Vec<Option<Ack>>,
) -> Vec<f64> {
    let mut rtts = Vec::with_capacity(frames.len());
    for frame in frames {
        let t = Instant::now();
        let ack = client.write_all(frame).ok().and_then(|()| read_ack(client));
        rtts.push(t.elapsed().as_secs_f64());
        let stop = ack.is_none();
        acks.push(ack);
        if stop {
            break;
        }
    }
    rtts
}

/// The batch a pre-encoded frame carries.
fn payload(frame: &[u8]) -> Batch {
    match IngestFrame::decode(frame) {
        Ok(IngestFrame::Batch { payload, .. }) => payload,
        other => panic!("generated frame does not decode to a batch: {other:?}"),
    }
}

/// Ingest every framed batch into `alloc` directly, calling `after` with
/// each batch's index; returns the seconds spent inside `ingest` alone.
fn ingest_all(
    alloc: &mut StreamAllocator,
    frames: &[Vec<u8>],
    mut after: impl FnMut(usize, &StreamAllocator),
) -> f64 {
    let mut busy = Duration::ZERO;
    for (t, frame) in frames.iter().enumerate() {
        let batch = payload(frame);
        let start = Instant::now();
        alloc.ingest(&batch);
        busy += start.elapsed();
        after(t, alloc);
    }
    busy.as_secs_f64()
}

pub fn run_workload(args: &Args, layers: &mut LayerValues) -> Report {
    let shape = shape(args.size);
    // Most of the run open-loop, a third as many batches closed-loop, in
    // alternating segments so both phases sample the whole run.
    let segment_open = (shape
        .min_open
        .max((0.6 * args.seconds * shape.rate) as usize))
    .div_ceil(SEGMENTS);
    let segment = segment_open + segment_open / 3;
    let (inputs, setup_s) = repeated_setup(
        || setup(&shape, args.seed, SEGMENTS * segment),
        |old: Inputs| drop(old.server.finish()),
    );
    let Inputs {
        prefill,
        frames,
        mut server,
    } = inputs;

    let (mut latency, mut late, mut acks, mut rtts) = (vec![], vec![], vec![], vec![]);
    let mut done = 0;
    for part in frames.chunks(segment) {
        let (part_open, part_closed) = part.split_at(segment_open);
        let (l, lt, a) = open_loop(&mut server.client, part_open, shape.rate);
        latency.extend(l);
        late.extend(lt);
        acks.extend(a);
        rtts.extend(closed_loop(&mut server.client, part_closed, &mut acks));
        // A failed closed loop stops early; keep acks aligned with frames.
        done += part.len();
        acks.resize(done, None);
    }
    let (summary, served) = server.finish();
    let peak = peak_rss_mb();

    // Check every ack and the summary against a direct ingest of the same
    // batches; this pass is also the stream layer's timing.
    let mut report = Report::default();
    if args.corrupt {
        if let Some(Some(ack)) = acks.first_mut() {
            ack.resident += 1;
        }
    }
    let mut reference = allocator(&shape, args.seed, &prefill);
    let ingest_s = ingest_all(&mut reference, &frames, |t, alloc| {
        let expect = Ack {
            batch: t as u64,
            resident: alloc.resident(),
            max_load: alloc.bin_state().max_load(),
        };
        report.check(acks[t] == Some(expect), || {
            format!("serve: ack {t} is {:?}, expected {expect:?}", acks[t])
        });
    });
    let expect = IngestSummary {
        batches: frames.len() as u64,
        balls: frames.len() as u64 * shape.batch,
        resident: reference.resident(),
        max_load: reference.bin_state().max_load(),
        gap: reference.bin_state().gap(),
    };
    report.check(summary == Some(expect) && served == Ok(expect), || {
        format!("serve: summary {summary:?} / {served:?}, expected {expect:?}")
    });

    // Capacity from the median round trip, so one stall on a shared host
    // does not decide it.
    report.metric("balls_per_s", shape.batch as f64 / median(&rtts), "balls/s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak, "MiB");
    let p50 = median(&latency);
    report.metric("p50_ms", p50 * 1e3, "ms");
    report.info("p99_ms", quantile(&latency, 0.99) * 1e3, "ms");
    report.info("gap", expect.gap as f64, "balls");

    if args.trace {
        layers.set(
            "stream.ingest_us_per_batch",
            ingest_s * 1e6 / frames.len() as f64,
        );
        layers.set("serve.queue_wait_ms", (p50 - median(&rtts)) * 1e3);
        layers.set("serve.late_ms", quantile(&late, 0.99) * 1e3);

        let codec_start = Instant::now();
        for frame in &frames {
            black_box(
                IngestFrame::decode(black_box(frame))
                    .ok()
                    .map(|f| f.encode()),
            );
        }
        layers.set(
            "ingest.codec_us_per_batch",
            codec_start.elapsed().as_secs_f64() * 1e6 / frames.len() as f64,
        );

        let sink = Arc::new(LayerSink::default());
        let mut traced = allocator(&shape, args.seed, &prefill).with_metrics(sink.clone());
        let traced_s = ingest_all(&mut traced, &frames, |_, _| {});
        report.check(
            traced.bin_state().load_vector() == reference.bin_state().load_vector()
                && sink.totals().batches as usize == frames.len(),
            || "serve: traced ingest diverged".into(),
        );
        layers.set("trace.overhead", traced_s / ingest_s - 1.0);
    }
    report
}
