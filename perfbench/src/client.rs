//! The closed-loop client: each connection sends its next op only after
//! the previous reply arrived.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One JSON-lines connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Send one request line and read its one reply line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What one op produced, as the client saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Index of the op in its workload's stream.
    pub index: u64,
    /// Client-observed round trip, milliseconds (every line of the op).
    pub latency_ms: f64,
    /// When the last reply arrived.
    pub end: Instant,
    /// The op's reply lines, or the transport error.
    pub replies: Result<Vec<String>, String>,
}

/// Drive `conns` connections in a closed loop until `deadline` (or op
/// index `limit`): each connection takes the next op index from a shared
/// counter, sends that op's lines one after another, and records the
/// round trip from the first send to the last reply. The op stream is the
/// same for every run of a seed; which connection sends which op depends
/// on timing only.
pub fn closed_loop<F>(
    addr: &str,
    conns: usize,
    deadline: Instant,
    limit: Option<u64>,
    lines: F,
) -> Result<Vec<OpRecord>, String>
where
    F: Fn(u64) -> Vec<String> + Sync,
{
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let conns: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, records, lines) = (&next, &records, &lines);
            scope.spawn(move || loop {
                if Instant::now() >= deadline {
                    return;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if limit.is_some_and(|l| index >= l) {
                    return;
                }
                let op = lines(index);
                let t = Instant::now();
                let replies: Result<Vec<String>, String> =
                    op.iter().map(|line| conn.roundtrip(line)).collect();
                let end = Instant::now();
                let latency_ms = (end - t).as_secs_f64() * 1e3;
                let broken = replies.is_err();
                records.lock().expect("records lock").push(OpRecord {
                    index,
                    latency_ms,
                    end,
                    replies,
                });
                if broken {
                    // A transport failure leaves the connection unusable.
                    return;
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.index);
    Ok(records)
}

/// One `stats` round trip.
pub fn stats(addr: &str) -> Result<atlas_serve::StatsResponse, String> {
    let reply = Conn::open(addr)?.roundtrip("{\"verb\":\"stats\"}")?;
    serde_json::from_str(&reply).map_err(|e| format!("bad stats reply `{reply}`: {e}"))
}
