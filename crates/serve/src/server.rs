//! The TCP front: line-delimited JSON over a thread-per-connection accept
//! loop, all connections sharing one [`ServeState`] behind a mutex.
//!
//! The protocol is strictly request/response per line, so the lock is held
//! only while one request computes — never across network reads. A request
//! line is at most [`MAX_LINE_BYTES`] long: a longer one is answered with an
//! error and read to its end without being buffered, and the connection
//! stays open. A
//! `shutdown` request flushes snapshots, flips the stop flag, and pokes the
//! listener with a loopback connection so the accept loop observes the flag
//! without platform-specific listener teardown.

use crate::protocol::{Request, Response};
use crate::state::ServeState;
use crate::ServeConfig;
use coevo_store::StoreError;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The longest request line, in bytes without its line ending, that the
/// daemon reads.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A bound, not-yet-running daemon. Binding and running are split so tests
/// (and the CLI banner) can learn the actual address before serving —
/// binding port 0 picks a free port.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<ServeState>,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// What bringing a daemon up can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on the TCP listener failed.
    Io(std::io::Error),
    /// Opening or reading the snapshot store failed.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serve: {e}"),
            Self::Store(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl Server {
    /// Bind the listener and restore snapshots. No request is served yet.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        let state = ServeState::open(config.taxonomy, config.store_dir.as_deref())?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                stop: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Projects restored from the snapshot store at bind time.
    pub fn restored_projects(&self) -> usize {
        self.shared.state.lock().expect("serve state lock").projects()
    }

    /// Serve until a `shutdown` request arrives. Accepted connections are
    /// handled on detached threads (a thread blocked on an idle client must
    /// not delay shutdown); the final snapshot flush happens in the
    /// `shutdown` handler itself, before its response is written, so it is
    /// always complete by the time this returns.
    pub fn run(self) -> Result<(), ServeError> {
        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        Ok(())
    }
}

/// Serve one connection: read request lines, answer response lines, until
/// EOF, a write failure, or a `shutdown` request.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // Parse once, outside the lock, and dispatch on the parsed command:
        // the raw line may mention "shutdown" anywhere (a project name).
        let parsed = match read_request_line(&mut reader, &mut buf) {
            Ok(Some(RequestLine::Text(line))) if line.trim().is_empty() => continue,
            Ok(Some(RequestLine::Text(line))) => Request::parse(&line),
            Ok(Some(RequestLine::TooLong)) => {
                Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
            }
            Ok(Some(RequestLine::NotUtf8)) => Err("request line is not UTF-8".to_string()),
            // EOF or a read error.
            Ok(None) | Err(_) => return,
        };
        let (response, shutting_down) = match parsed {
            Err(e) => (Response::err(e), false),
            Ok(req) => {
                let mut state = shared.state.lock().expect("serve state lock");
                let response = state.handle(&req);
                let shutting_down = response.ok && req.cmd == "shutdown";
                if shutting_down {
                    // Bounded crash-loss is the contract while running; zero
                    // loss is the contract on clean shutdown.
                    let _ = state.flush_snapshots();
                }
                (response, shutting_down)
            }
        };
        let json = serde_json::to_string(&response).expect("response serializes");
        if writeln!(writer, "{json}").and_then(|_| writer.flush()).is_err() {
            return;
        }
        if shutting_down {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            return;
        }
    }
}

/// One line read by [`read_request_line`].
enum RequestLine {
    /// A line of at most [`MAX_LINE_BYTES`] bytes, without its line ending.
    Text(String),
    /// A longer line, read to its end and discarded.
    TooLong,
    /// A line of at most [`MAX_LINE_BYTES`] bytes that is not UTF-8.
    NotUtf8,
}

/// Read the next `\n`-terminated line (or the unterminated tail before
/// EOF), dropping the line ending as [`BufRead::lines`] does. At most
/// [`MAX_LINE_BYTES`] and a line ending are read into `buf`; the rest of a
/// longer line is skipped in the reader's own buffer, never held. `None`
/// at EOF.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> io::Result<Option<RequestLine>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 2; // the longest line and "\r\n"
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let ended = buf.last() == Some(&b'\n');
    if ended {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        if !ended {
            reader.skip_until(b'\n')?;
        }
        return Ok(Some(RequestLine::TooLong));
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(text) => RequestLine::Text(text.to_string()),
        Err(_) => RequestLine::NotUtf8,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireEvent;
    use coevo_taxa::TaxonomyConfig;
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            Self { reader, writer: stream }
        }

        fn roundtrip(&mut self, req: &Request) -> Response {
            let line = serde_json::to_string(req).unwrap();
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            let mut answer = String::new();
            self.reader.read_line(&mut answer).unwrap();
            serde_json::from_str(&answer).expect("response json")
        }
    }

    fn spawn_server(
        store_dir: Option<std::path::PathBuf>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir,
            taxonomy: TaxonomyConfig::default(),
        };
        let server = Server::bind(&config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle)
    }

    #[test]
    fn full_protocol_session_over_tcp() {
        let (addr, handle) = spawn_server(None);
        let mut client = Client::connect(addr);

        assert!(client.roundtrip(&Request::bare("ping")).ok);

        let resp = client.roundtrip(&Request {
            cmd: "ingest".into(),
            project: Some("net/socket".into()),
            dialect: Some("mysql".into()),
            taxon: None,
            ddl: None,
            events: Some(vec![
                WireEvent::commit("2020-01-05 00:00:00 +0000", 3),
                WireEvent::ddl("2020-01-10 00:00:00 +0000", "CREATE TABLE t (a INT);"),
                WireEvent::commit("2020-02-05 00:00:00 +0000", 2),
            ]),
        });
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.applied, Some(3));

        let resp = client.roundtrip(&Request {
            project: Some("net/socket".into()),
            ..Request::bare("project")
        });
        let measures = resp.measures.expect("measures");
        assert_eq!(measures.months, 2);
        assert_eq!(measures.project_total_activity, 5);

        // A second concurrent client sees the same state.
        let mut other = Client::connect(addr);
        let resp = other.roundtrip(&Request::bare("summary"));
        assert_eq!(resp.projects, Some(1));
        assert!(resp.report.unwrap().contains("Figure 4"));

        // Malformed input keeps the connection alive.
        writeln!(client.writer, "not json").unwrap();
        client.writer.flush().unwrap();
        let mut answer = String::new();
        client.reader.read_line(&mut answer).unwrap();
        assert!(answer.contains("\"ok\":false"));
        assert!(client.roundtrip(&Request::bare("ping")).ok);

        assert!(client.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");
    }

    #[test]
    fn an_over_long_line_is_refused_and_the_connection_lives_on() {
        let (addr, handle) = spawn_server(None);
        let mut client = Client::connect(addr);
        let line = vec![b'x'; 8 << 20];
        client.writer.write_all(&line).unwrap();
        client.writer.write_all(b"\n").unwrap();
        client.writer.flush().unwrap();
        let mut answer = String::new();
        client.reader.read_line(&mut answer).unwrap();
        let resp: Response = serde_json::from_str(&answer).expect("response json");
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("request line longer than 1048576 bytes"));
        assert!(client.roundtrip(&Request::bare("ping")).ok);
        assert!(client.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");
    }

    #[test]
    fn request_lines_are_bounded_and_keep_their_framing() {
        let mut input = vec![b'y'; 3 * MAX_LINE_BYTES];
        input.extend_from_slice(b"\nfirst\r\n\n");
        input.extend_from_slice(&vec![b'z'; MAX_LINE_BYTES]);
        input.extend_from_slice(b"\ntail");
        let mut reader = BufReader::new(input.as_slice());
        let mut buf = Vec::new();
        let mut next = || match read_request_line(&mut reader, &mut buf).unwrap() {
            Some(RequestLine::Text(t)) => Some(Ok(t.len().min(8))),
            Some(RequestLine::TooLong | RequestLine::NotUtf8) => Some(Err(())),
            None => None,
        };
        assert_eq!(next(), Some(Err(())));
        assert_eq!(next(), Some(Ok(5)));
        assert_eq!(next(), Some(Ok(0)));
        // Exactly at the cap is still a line.
        assert_eq!(next(), Some(Ok(8)));
        assert_eq!(next(), Some(Ok(4)));
        assert_eq!(next(), None);
        // The over-long line was never held whole.
        assert!(buf.capacity() <= 2 * MAX_LINE_BYTES, "{}", buf.capacity());

        // A line that is not UTF-8 is refused on its own; the next one reads.
        let mut reader = BufReader::new(&b"\xff\nping\n"[..]);
        let mut next = || read_request_line(&mut reader, &mut buf).unwrap();
        assert!(matches!(next(), Some(RequestLine::NotUtf8)));
        assert!(matches!(next(), Some(RequestLine::Text(t)) if t == "ping"));
        assert!(next().is_none());
    }

    #[test]
    fn a_line_that_is_not_utf8_is_refused_and_the_connection_lives_on() {
        let (addr, handle) = spawn_server(None);
        let mut client = Client::connect(addr);
        client.writer.write_all(b"{\"cmd\":\"\xff\"}\n").unwrap();
        client.writer.flush().unwrap();
        let mut answer = String::new();
        client.reader.read_line(&mut answer).unwrap();
        let resp: Response = serde_json::from_str(&answer).expect("response json");
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("request line is not UTF-8"));
        assert!(client.roundtrip(&Request::bare("ping")).ok);
        assert!(client.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");
    }

    #[test]
    fn only_the_shutdown_command_stops_the_daemon() {
        let (addr, handle) = spawn_server(None);
        let mut client = Client::connect(addr);
        // A project named `shutdown`: the raw line contains "shutdown".
        let resp = client.roundtrip(&Request {
            project: Some("shutdown".into()),
            events: Some(vec![WireEvent::commit("2020-01-05 00:00:00 +0000", 1)]),
            ..Request::bare("ingest")
        });
        assert!(resp.ok, "{:?}", resp.error);
        let resp = client.roundtrip(&Request {
            project: Some("shutdown".into()),
            ..Request::bare("project")
        });
        assert!(resp.ok, "{:?}", resp.error);
        // The daemon still answers, on this connection and on a new one.
        assert!(client.roundtrip(&Request::bare("ping")).ok);
        let mut other = Client::connect(addr);
        assert!(other.roundtrip(&Request::bare("ping")).ok);
        assert!(other.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");
    }

    #[test]
    fn shutdown_flushes_snapshots_for_warm_restart() {
        let dir = std::env::temp_dir().join(format!(
            "coevo_serve_tcp_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (addr, handle) = spawn_server(Some(dir.clone()));
        let mut client = Client::connect(addr);
        let resp = client.roundtrip(&Request {
            cmd: "ingest".into(),
            project: Some("warm/restart".into()),
            dialect: None,
            taxon: None,
            ddl: None,
            events: Some(vec![
                WireEvent::commit("2021-03-01 00:00:00 +0000", 4),
                WireEvent::ddl("2021-03-02 00:00:00 +0000", "CREATE TABLE w (a INT);"),
            ]),
        });
        assert!(resp.ok, "{:?}", resp.error);
        assert!(client.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");

        // A new daemon over the same store resumes with the project warm.
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: Some(dir.clone()),
            taxonomy: TaxonomyConfig::default(),
        };
        let server = Server::bind(&config).expect("rebind");
        assert_eq!(server.restored_projects(), 1);
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        let mut client = Client::connect(addr);
        let resp = client.roundtrip(&Request {
            project: Some("warm/restart".into()),
            ..Request::bare("project")
        });
        assert!(resp.measures.is_some());
        assert!(client.roundtrip(&Request::bare("shutdown")).ok);
        handle.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
