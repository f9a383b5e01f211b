//! Localhost-socket integration: the TCP front end speaks the protocol
//! end to end and shuts down gracefully — listener closed, in-flight
//! steps finished, journals flushed — both on a wire `shutdown` request
//! and on the SIGTERM-equivalent [`ServerHandle::shutdown`].

use picos_backend::{Admission, BackendSpec};
use picos_serve::{
    schedule_digest, serve, Request, ServeConfig, Service, TenantSpec, MAX_LINE_BYTES,
};
use picos_trace::{gen, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picos-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A line-oriented protocol client over a blocking socket.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one request and returns the parsed response object.
    fn call(&mut self, req: &Request) -> Value {
        self.writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        picos_serve::parse_response(line.trim()).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    fn call_ok(&mut self, req: &Request) -> Value {
        let v = self.call(req);
        let ok = matches!(
            v.as_obj().and_then(|o| o.get("ok")),
            Some(Value::Bool(true))
        );
        assert!(ok, "{}: {v:?}", req.to_line());
        v
    }
}

fn field(v: &Value, name: &str) -> u64 {
    v.as_obj()
        .and_then(|o| o.get(name))
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("response misses {name}: {v:?}"))
}

/// Full protocol conversation over a real socket: open, submit a whole
/// trace, poll stats until drained, close — and the wire digest matches
/// the identical solo session bit-exactly.
#[test]
fn socket_session_matches_solo() {
    let server = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr());
    let spec = TenantSpec::new(BackendSpec::Nanos, 4);
    let trace = gen::stream(gen::StreamConfig::heavy(40));

    c.call_ok(&Request::Open {
        tenant: "wire".into(),
        spec: spec.clone(),
    });
    for task in trace.iter() {
        // The server runs scheduler rounds between requests, so
        // backpressure (if any) resolves by retrying.
        loop {
            let v = c.call_ok(&Request::Submit {
                tenant: "wire".into(),
                task: task.clone(),
            });
            let outcome = v
                .as_obj()
                .and_then(|o| o.get("outcome"))
                .and_then(Value::as_string)
                .unwrap()
                .to_string();
            if outcome == "accepted" {
                break;
            }
        }
    }
    // Drain via the open-loop primitive: `advance` moves the tenant's
    // clock (the scheduler alone never advances a non-blocked session —
    // that is the determinism invariant).
    c.call_ok(&Request::Advance {
        tenant: "wire".into(),
        cycle: 1 << 40,
    });
    let v = c.call_ok(&Request::Stats {
        tenant: "wire".into(),
    });
    let stats = v.as_obj().unwrap().get("stats").unwrap();
    assert_eq!(field(stats, "submitted"), trace.len() as u64);
    assert_eq!(
        field(stats, "in_flight"),
        0,
        "advance must drain the tenant"
    );
    let closed = c.call_ok(&Request::Close {
        tenant: "wire".into(),
    });

    // Solo reference for the bit-exactness digest.
    let backend = spec.build_backend();
    let cfg = spec.effective_session_config(ServeConfig::default().default_quota);
    let mut solo = backend.open_with(cfg).unwrap();
    for task in trace.iter() {
        assert_eq!(solo.submit(task), Admission::Accepted);
    }
    let (report, _) = solo.finish().unwrap();
    assert_eq!(field(&closed, "tasks"), trace.len() as u64);
    assert_eq!(field(&closed, "makespan"), report.makespan);
    assert_eq!(field(&closed, "digest"), schedule_digest(&report));

    server.shutdown().unwrap();
}

/// A wire `shutdown` request is the SIGTERM-equivalent: the client gets
/// its acknowledgement, the listener closes, in-flight steps finish and
/// every journal reaches disk — a fresh service recovers the tenant.
#[test]
fn wire_shutdown_is_graceful_and_flushes_journals() {
    let dir = scratch("wire-shutdown");
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve(cfg, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr);
    c.call_ok(&Request::Open {
        tenant: "durable".into(),
        spec: TenantSpec::new(BackendSpec::Perfect, 2),
    });
    let trace = gen::stream(gen::StreamConfig::heavy(12));
    for task in trace.iter() {
        c.call_ok(&Request::Submit {
            tenant: "durable".into(),
            task: task.clone(),
        });
    }
    // The acknowledgement must arrive before the server exits.
    c.call_ok(&Request::Shutdown);
    server.shutdown().unwrap();

    // Listener is closed: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed");

    // Journals were flushed: a fresh service recovers the tenant with the
    // full accepted stream.
    let recovered = Service::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    assert!(
        recovered.recovery_errors().is_empty(),
        "{:?}",
        recovered.recovery_errors()
    );
    assert!(recovered.contains("durable"));
    assert_eq!(
        recovered.journal("durable").unwrap().submitted(),
        trace.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`ServerHandle::shutdown`] (the in-process SIGTERM) also flushes
/// journals without any wire traffic, and buffered responses still reach
/// a slow client.
#[test]
fn handle_shutdown_flushes_without_wire_traffic() {
    let dir = scratch("handle-shutdown");
    let cfg = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve(cfg, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr());
    c.call_ok(&Request::Open {
        tenant: "t".into(),
        spec: TenantSpec::new(BackendSpec::Nanos, 2),
    });
    let trace = gen::stream(gen::StreamConfig::heavy(8));
    for task in trace.iter() {
        c.call_ok(&Request::Submit {
            tenant: "t".into(),
            task: task.clone(),
        });
    }
    server.shutdown().unwrap();
    let recovered = Service::new(ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(recovered.journal("t").unwrap().submitted(), trace.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that never terminates its line is cut off at
/// `MAX_LINE_BYTES`: it gets one protocol error line and then EOF, while
/// another client on the same server keeps being served.
#[test]
fn unterminated_line_past_the_limit_is_rejected_and_closed() {
    let server = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut good = Client::connect(server.addr());
    let spec = TenantSpec::new(BackendSpec::Perfect, 2);
    good.call_ok(&Request::Open {
        tenant: "good".into(),
        spec,
    });

    let mut bad = Client::connect(server.addr());
    bad.writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("write");
    let mut line = String::new();
    bad.reader.read_line(&mut line).expect("read error line");
    let v = picos_serve::parse_response(line.trim()).unwrap();
    let obj = v.as_obj().expect("response object");
    assert_eq!(obj.get("ok"), Some(&Value::Bool(false)), "{line}");
    let err = obj.get("error").and_then(Value::as_string).unwrap();
    assert!(err.contains("exceeds"), "{err}");
    let mut rest = Vec::new();
    bad.reader
        .read_to_end(&mut rest)
        .expect("EOF after the error");
    assert!(rest.is_empty(), "nothing follows the error line");

    let v = good.call_ok(&Request::Stats {
        tenant: "good".into(),
    });
    assert!(v.as_obj().unwrap().get("stats").is_some(), "{v:?}");
    server.shutdown().unwrap();
}
