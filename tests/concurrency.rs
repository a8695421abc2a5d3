//! Thread-level stress: the coordination service and warehouse are shared
//! mutable infrastructure; these tests drive them from many threads the way
//! tens of thousands of production daemons would.

use std::sync::Arc;
use std::thread;

use unified_logging::coord::{CoordService, CreateMode};
use unified_logging::prelude::*;
use unified_logging::scribe::message::LogEntry;

#[test]
fn coord_handles_concurrent_ephemeral_churn() {
    let svc = CoordService::new();
    let admin = svc.connect();
    admin
        .create("/aggregators", vec![], CreateMode::Persistent)
        .unwrap();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let svc = svc.clone();
            thread::spawn(move || {
                for round in 0..50 {
                    let session = svc.connect();
                    let path = session
                        .create(
                            "/aggregators/member-",
                            format!("t{t}-r{round}").into_bytes(),
                            CreateMode::EphemeralSequential,
                        )
                        .expect("parent exists");
                    // Another session can observe the member.
                    let observer = svc.connect();
                    let members = observer.get_children("/aggregators").expect("live");
                    assert!(members.iter().any(|m| path.ends_with(m)));
                    drop(session); // ephemeral vanishes
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no panics");
    }
    // All ephemerals are gone; only the parent remains.
    assert!(admin.get_children("/aggregators").unwrap().is_empty());
    assert_eq!(svc.node_count(), 2); // root + /aggregators
}

#[test]
fn coord_sequential_names_are_unique_under_contention() {
    let svc = CoordService::new();
    let admin = svc.connect();
    admin
        .create("/seq", vec![], CreateMode::Persistent)
        .unwrap();
    let created: Vec<String> = {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let svc = svc.clone();
                thread::spawn(move || {
                    let s = svc.connect();
                    (0..100)
                        .map(|_| {
                            s.create("/seq/n-", vec![], CreateMode::PersistentSequential)
                                .expect("parent exists")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panics"))
            .collect()
    };
    let mut unique = created.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), created.len(), "no duplicate sequence names");
    assert_eq!(created.len(), 800);
}

#[test]
fn warehouse_concurrent_writers_and_readers() {
    let wh = Arc::new(Warehouse::with_block_capacity(4096));
    // Writers create disjoint files while readers scan whatever exists.
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let wh = Arc::clone(&wh);
            thread::spawn(move || {
                for f in 0..20 {
                    let path = WhPath::parse(&format!("/logs/t{t}/file-{f}")).unwrap();
                    let mut w = wh.create(&path).expect("distinct paths");
                    for r in 0..200 {
                        w.append_record(format!("t{t}-f{f}-r{r}").as_bytes());
                    }
                    w.finish().expect("available");
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let wh = Arc::clone(&wh);
            thread::spawn(move || {
                let mut seen = 0u64;
                for _ in 0..50 {
                    let root = WhPath::parse("/logs").unwrap();
                    if !wh.exists(&root) {
                        continue;
                    }
                    let Ok(files) = wh.list_files_recursive(&root) else {
                        continue;
                    };
                    for f in files {
                        // Files are atomic: a visible file is fully readable.
                        let records = wh.open(&f).expect("visible implies complete");
                        seen += records.read_all().expect("no torn reads").len() as u64;
                    }
                }
                seen
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writers never panic");
    }
    for r in readers {
        r.join().expect("readers never panic");
    }
    // Final state: exactly the written records.
    let total: u64 = wh
        .list_files_recursive(&WhPath::parse("/logs").unwrap())
        .unwrap()
        .iter()
        .map(|f| wh.file_meta(f).unwrap().records)
        .sum();
    assert_eq!(total, 4 * 20 * 200);
}

#[test]
fn scribe_network_delivery_from_many_threads() {
    let coord = CoordService::new();
    let net = unified_logging::scribe::Network::new();
    let mut agg = unified_logging::scribe::Aggregator::spawn(&coord, &net, "dc0", Warehouse::new());
    let endpoint = agg.endpoint().to_string();

    let senders: Vec<_> = (0..8)
        .map(|t| {
            let net = net.clone();
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                for i in 0..500 {
                    net.send(
                        &endpoint,
                        LogEntry::new("client_events", format!("t{t}-{i}").into_bytes()),
                    )
                    .expect("aggregator is up");
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("no panics");
    }
    assert_eq!(agg.process(), 8 * 500);
    let report = agg.flush(0);
    assert_eq!(report.flushed_records, 8 * 500);
}

/// What one reader of the shared warehouse reported for its own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bills {
    /// Engine: `(input_records, input_blocks, input_bytes_uncompressed)`.
    engine: (u64, u64, u64),
    /// Serve lookup: `(decoded_bytes, groups_read, files_visited)`.
    serve: (u64, u64, u64),
    /// Decoded bytes of one index build of the hour.
    build: u64,
}

/// `ClientEventLoader`, except that the first row record of the first scan
/// after [`GatedLoader::arm`] parks the scanning thread between two
/// barriers — the hook that lets a test run other readers strictly inside
/// an engine query's scan.
struct GatedLoader {
    armed: std::sync::atomic::AtomicBool,
    entered: std::sync::Barrier,
    resume: std::sync::Barrier,
}

impl Loader for GatedLoader {
    fn name(&self) -> &'static str {
        "GatedLoader"
    }
    fn parse(&self, record: &[u8]) -> unified_logging::dataflow::DataflowResult<Option<Tuple>> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.entered.wait();
            self.resume.wait();
        }
        ClientEventLoader.parse(record)
    }
    fn columnar(&self) -> Option<&dyn unified_logging::dataflow::ColumnarCodec> {
        ClientEventLoader.columnar()
    }
}

#[test]
fn concurrent_readers_are_each_billed_exactly_their_own_bytes() {
    use unified_logging::core::write_client_events_columnar;
    use unified_logging::thrift::ThriftRecord;
    use unified_logging::warehouse::HourlyPartition;

    // One delivered hour holding both layouts, each file several scan units
    // long: a columnar part and a row-format sibling.
    let wh = Warehouse::with_block_capacity(2048);
    let partition = HourlyPartition::from_hour_index("client_events", 3);
    let dir = partition.main_dir();
    let events: Vec<ClientEvent> = (0..400i64)
        .map(|i| {
            ClientEvent::new(
                EventInitiator::CLIENT_USER,
                EventName::parse("web:home:home:stream:tweet:click").unwrap(),
                i % 9,
                format!("s-{}", i % 9),
                "10.0.0.1",
                Timestamp::from_hour_index(3).plus(i * 1000),
            )
        })
        .collect();
    write_client_events_columnar(
        &wh,
        &dir.child("part-00000").unwrap(),
        &events[..200],
        true,
        32,
    )
    .unwrap();
    let mut w = wh.create(&dir.child("part-00001").unwrap()).unwrap();
    for ev in &events[200..] {
        w.append_record(&ev.to_bytes());
    }
    w.finish().unwrap();

    let maintainer = IndexMaintainer::new(wh.clone(), "client_events");
    let handle = maintainer.handle();
    let loader = Arc::new(GatedLoader {
        armed: std::sync::atomic::AtomicBool::new(false),
        entered: std::sync::Barrier::new(2),
        resume: std::sync::Barrier::new(2),
    });
    let engine = Engine::new(wh.clone())
        .with_parallelism(Parallelism::serial())
        .with_pushdown(Pushdown::Eager);
    let plan = Plan::load(dir.clone(), loader.clone(), CLIENT_EVENT_SCHEMA.to_vec());

    let run_engine = || {
        let s = engine.run(&plan).unwrap().stats;
        (s.input_records, s.input_blocks, s.input_bytes_uncompressed)
    };
    let run_serve_and_build = || {
        let before = maintainer.build_decoded_bytes();
        maintainer.tap().hour_delivered(&partition, &[]);
        let build = maintainer.build_decoded_bytes() - before;
        let s = handle.user_events(4, 3).unwrap().stats;
        ((s.decoded_bytes, s.groups_read, s.files_visited), build)
    };

    // Alone: nothing else touches the warehouse, so the global counters
    // must agree with what each reader says it cost.
    let before = wh.stats();
    let engine_alone = run_engine();
    assert_eq!(
        wh.stats().since(&before).uncompressed_bytes_read,
        engine_alone.2,
        "engine self-accounts"
    );
    let before = wh.stats();
    let (serve_alone, build_alone) = run_serve_and_build();
    assert_eq!(
        wh.stats().since(&before).uncompressed_bytes_read,
        serve_alone.0 + build_alone,
        "serve and index build self-account"
    );
    let alone = Bills {
        engine: engine_alone,
        serve: serve_alone,
        build: build_alone,
    };
    assert_eq!(alone.engine.0, 400);
    assert!(alone.serve.0 > 0 && alone.build > 0);

    // Forced interleaving: the lookup and the index build run strictly
    // inside the engine's scan, between its first and second row record.
    loader
        .armed
        .store(true, std::sync::atomic::Ordering::SeqCst);
    let nested = thread::scope(|scope| {
        let engine_thread = scope.spawn(run_engine);
        loader.entered.wait();
        let (serve, build) = run_serve_and_build();
        loader.resume.wait();
        Bills {
            engine: engine_thread.join().expect("engine thread"),
            serve,
            build,
        }
    });
    assert_eq!(nested, alone, "readers nested inside an engine scan");

    // Free-running: both sides hammer the warehouse from a common start.
    let start = std::sync::Barrier::new(2);
    thread::scope(|scope| {
        let engine_thread = scope.spawn(|| {
            start.wait();
            for round in 0..40 {
                assert_eq!(run_engine(), alone.engine, "engine round {round}");
            }
        });
        start.wait();
        for round in 0..40 {
            assert_eq!(
                run_serve_and_build(),
                (alone.serve, alone.build),
                "serve round {round}"
            );
        }
        engine_thread.join().expect("engine thread");
    });
}
