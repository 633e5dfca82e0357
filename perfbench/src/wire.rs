//! A minimal HTTP/1.1 keep-alive client of the benchmark's own, so the
//! load generator measures the fleet from outside and does not share
//! code with the server under test. One request at a time per
//! connection; a failed request is reported, never retried.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: a stalled fleet fails the request instead of
/// hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// The bytes of one request. `trace` sets the `x-prophet-trace` header.
pub fn request_bytes(method: &str, path: &str, body: &str, trace: Option<&str>) -> Vec<u8> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(id) = trace {
        head.push_str(&format!("x-prophet-trace: {id}\r\n"));
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections dialled after the first one.
    pub reconnects: u64,
    dialled: bool,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            reconnects: 0,
            dialled: false,
        }
    }

    /// Send prebuilt request bytes and read the whole response.
    pub fn send(&mut self, request: &[u8]) -> Result<Reply, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            if self.dialled {
                self.reconnects += 1;
            }
            self.dialled = true;
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| read_reply(reader));
        match result {
            Ok((reply, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// One `GET` on this connection.
    pub fn get(&mut self, path: &str) -> Result<Reply, String> {
        self.send(&request_bytes("GET", path, "", None))
    }

    /// One `POST` on this connection.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Reply, String> {
        self.send(&request_bytes("POST", path, body, None))
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<(Reply, bool), String> {
    let mut line = String::new();
    let mut read_line = |line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    };
    read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value.parse().map_err(|_| format!("bad length {value:?}"))?
                }
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("receive body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    Ok((Reply { status, body }, keep_alive))
}

/// The `predicted_time` member of an estimate response, read without a
/// JSON parser (the load generator must stay cheap).
pub fn predicted_time(body: &str) -> Option<f64> {
    let key = "\"predicted_time\":";
    let start = body.find(key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_time_is_read_bit_exact() {
        let t: f64 = 0.1 + 0.2;
        let body = format!("{{\"model\":\"m\",\"predicted_time\":{t},\"sp\":{{}}}}");
        assert_eq!(predicted_time(&body).map(f64::to_bits), Some(t.to_bits()));
        assert_eq!(predicted_time("{\"error\":\"x\"}"), None);
    }
}
