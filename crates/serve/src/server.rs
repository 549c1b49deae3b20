//! Transports over [`Advisor::handle_line`]: TCP, Unix socket, and the
//! in-process script replayer the CI smoke uses for byte-comparisons.
//!
//! Both socket servers share one thread-per-connection accept loop over
//! `std::net` / `std::os::unix::net` (the workspace's zero-dependency
//! rule): each client reads newline-delimited JSON requests and writes
//! one response line per request. At most [`MAX_CONNECTIONS`] clients
//! are served at once; the `stats` op reports the live count. A
//! `shutdown` op flips a shared stop flag and pokes the listener with a
//! loopback connection so the blocking `accept` observes it promptly. A
//! request line longer than [`MAX_LINE`] bytes, or one that is not
//! UTF-8, gets one `invalid-request` row and the connection stays open;
//! the reader never buffers more than the cap.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::advisor::{error_line, Advisor, Control, CountGuard, Reply};

/// Longest request line, in bytes without its `\n`, that a socket
/// client may send.
const MAX_LINE: usize = 1 << 20;

/// Socket connections a daemon serves at once. One past the cap gets a
/// single `budget` row and is closed, so idle clients cannot grow the
/// daemon's threads without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// Replays a newline-delimited request script through `advisor`, writing
/// one response line per request to `out`. Blank lines and `#` comment
/// lines are skipped (so scripts can be annotated). Stops early after a
/// `shutdown` op. Returns the number of requests processed.
///
/// This is the determinism harness: the CI smoke replays the same script
/// cold and warm, serial and parallel, and byte-compares the outputs.
pub fn run_script(advisor: &Advisor, script: &str, out: &mut dyn Write) -> std::io::Result<usize> {
    let mut handled = 0;
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let reply = advisor.handle_line(line);
        out.write_all(reply.text.as_bytes())?;
        out.write_all(b"\n")?;
        handled += 1;
        if reply.control == Control::Shutdown {
            break;
        }
    }
    out.flush()?;
    Ok(handled)
}

fn serve_client(advisor: &Advisor, stream: impl Read + Write, stop: &AtomicBool) {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one of
        // exactly `MAX_LINE` bytes.
        match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return, // client hung up
            Ok(_) => {}
        }
        let reply = if buf.last() != Some(&b'\n') && buf.len() > MAX_LINE {
            // Drop the rest of the line unread; the next one is served.
            if reader.skip_until(b'\n').is_err() {
                return;
            }
            rejected(&format!("request line exceeds {MAX_LINE} bytes"))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => advisor.handle_line(line.trim()),
                Err(_) => rejected("request line is not valid UTF-8"),
            }
        };
        let stream = reader.get_mut();
        if stream.write_all(reply.text.as_bytes()).is_err()
            || stream.write_all(b"\n").is_err()
            || stream.flush().is_err()
        {
            return;
        }
        if reply.control == Control::Shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// The `invalid-request` row for a line the transport refused to parse.
fn rejected(detail: &str) -> Reply {
    Reply {
        text: error_line("", "", "invalid-request", detail),
        control: Control::Continue,
    }
}

/// The accept loop both socket transports share: each connection is
/// served on its own thread, at most [`MAX_CONNECTIONS`] at once, until a
/// client's `shutdown` op flips the stop flag. `poke` connects to the
/// listener once so the blocked `accept` observes the flag promptly.
fn accept_loop<S: Read + Write + Send + 'static>(
    advisor: Arc<Advisor>,
    incoming: impl Iterator<Item = std::io::Result<S>>,
    poke: impl Fn() + Send + Sync + 'static,
) {
    let stop = Arc::new(AtomicBool::new(false));
    let poke = Arc::new(poke);
    for stream in incoming {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Only this loop raises the gauge, so no connection slips past the
        // cap between the check and the increment.
        if advisor.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            let row = error_line(
                "",
                "",
                "budget",
                &format!("too many connections (max {MAX_CONNECTIONS})"),
            );
            let _ = stream
                .write_all(row.as_bytes())
                .and_then(|()| stream.write_all(b"\n"));
            continue; // dropping the stream closes it
        }
        advisor.connections.fetch_add(1, Ordering::SeqCst);
        let advisor = Arc::clone(&advisor);
        let stop = Arc::clone(&stop);
        let poke = Arc::clone(&poke);
        std::thread::spawn(move || {
            {
                let _live = CountGuard(&advisor.connections);
                serve_client(&advisor, stream, &stop);
            }
            if stop.load(Ordering::SeqCst) {
                poke();
            }
        });
    }
}

/// Serves `advisor` on a TCP address (e.g. `127.0.0.1:4870`) until a
/// client sends `{"op":"shutdown"}`. Blocks the calling thread.
pub fn serve_tcp(advisor: Arc<Advisor>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("smart-serve: listening on {local}");
    accept_loop(advisor, listener.incoming(), move || {
        let _ = TcpStream::connect(local);
    });
    Ok(())
}

/// Serves `advisor` on a Unix-domain socket path until shutdown. The
/// socket file is removed first (stale sockets from a previous run would
/// otherwise refuse the bind) and unlinked on exit.
#[cfg(unix)]
pub fn serve_unix(advisor: Arc<Advisor>, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("smart-serve: listening on {}", path.display());
    let poke = path.to_path_buf();
    accept_loop(advisor, listener.incoming(), move || {
        let _ = UnixStream::connect(&poke);
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeOptions;

    /// An in-memory socket: reads a fixed request stream, records every
    /// byte written back.
    struct Duplex {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn replies(input: Vec<u8>) -> Vec<String> {
        let advisor = Advisor::new(ServeOptions::default());
        let mut stream = Duplex {
            input: std::io::Cursor::new(input),
            output: Vec::new(),
        };
        serve_client(&advisor, &mut stream, &AtomicBool::new(false));
        let text = String::from_utf8(stream.output).expect("replies are UTF-8");
        text.lines().map(str::to_owned).collect()
    }

    const PING: &str = "{\"ok\":true,\"op\":\"ping\",\"id\":\"p\"}";

    /// A 2 MiB line — a well-formed ping padded past the cap — gets one
    /// `invalid-request` row instead of being buffered whole and served,
    /// and the ping after it is still answered.
    #[test]
    fn over_long_line_is_one_invalid_request_row() {
        let mut input = b"{\"op\":\"ping\",\"id\":\"big\",\"pad\":\"".to_vec();
        input.resize(2 << 20, b'a');
        input.extend_from_slice(b"\"}\n{\"op\":\"ping\",\"id\":\"p\"}\n");
        let rows = replies(input);
        assert_eq!(rows.len(), 2, "{rows:.200?}");
        assert!(
            rows[0].contains("\"error\":\"invalid-request\"")
                && rows[0].contains("exceeds 1048576 bytes"),
            "{}",
            rows[0]
        );
        assert_eq!(rows[1], PING);
    }

    /// A line of exactly the cap is still read and served.
    #[test]
    fn line_at_the_cap_is_served() {
        let mut input = b"{\"op\":\"ping\",\"id\":\"p\",\"pad\":\"".to_vec();
        input.resize(MAX_LINE - 2, b'a');
        input.extend_from_slice(b"\"}\n");
        assert_eq!(replies(input), [PING]);
    }

    /// A line that is not UTF-8 gets one `invalid-request` row; the
    /// connection stays open for the next request.
    #[test]
    fn non_utf8_line_is_one_invalid_request_row() {
        let rows = replies(b"\xff\xfe\n{\"op\":\"ping\",\"id\":\"p\"}\n".to_vec());
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(
            rows[0].contains("\"error\":\"invalid-request\"") && rows[0].contains("UTF-8"),
            "{}",
            rows[0]
        );
        assert_eq!(rows[1], PING);
    }
}
