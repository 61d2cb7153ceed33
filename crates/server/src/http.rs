//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! One request per connection (`Connection: close`), bodies sized by
//! `Content-Length`, no keep-alive. The one extension beyond that is
//! server-to-client `Transfer-Encoding: chunked`, which the coordinator
//! uses to stream campaign progress lines as shards land. That subset is
//! all the campaign service needs, and it keeps the crate std-only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Largest request body the server accepts (a merge of many shard ids is
/// tiny; campaign specs are smaller still).
pub const MAX_BODY: usize = 1 << 26;

/// Largest request line plus headers the server buffers; a longer head is
/// refused as malformed.
pub const MAX_HEAD: usize = 8 << 10;

/// How long a server waits on any one read or write of a connection. The
/// accept loops serve one connection at a time, so this bounds how long a
/// client that connects and then sends (or reads) nothing holds up every
/// other route.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a server gives one request (request line, headers and body
/// together) before refusing it. It is checked after each read, so a
/// client that trickles one byte per [`IO_TIMEOUT`] holds the accept loop
/// for at most this plus one [`IO_TIMEOUT`], not for [`MAX_HEAD`] reads.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Accept one connection with [`IO_TIMEOUT`] set on its reads and writes.
///
/// # Errors
///
/// Fails on accept errors or if the socket refuses the timeouts.
pub fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request path (query strings are not split off; the service
    /// does not use them).
    pub path: String,
    /// The body, empty when no `Content-Length` was sent.
    pub body: String,
}

/// A reader whose every read fails once `deadline` has passed.
struct Deadline<R> {
    inner: R,
    deadline: Instant,
}

impl<R: Read> Read for Deadline<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if Instant::now() > self.deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request not received within its deadline",
            ));
        }
        Ok(n)
    }
}

/// Read one request from the stream.
///
/// # Errors
///
/// Fails on I/O errors (a timed-out read included), a request that is
/// still arriving after [`REQUEST_DEADLINE`], a request line plus headers
/// longer than [`MAX_HEAD`], a malformed request line, a non-numeric or
/// oversized `Content-Length`, or a body that is not UTF-8.
pub fn read_request(stream: &TcpStream) -> std::io::Result<Request> {
    let bad = |reason: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let mut reader = BufReader::new(Deadline {
        inner: stream.try_clone()?,
        deadline: Instant::now() + REQUEST_DEADLINE,
    });
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let mut read_head_line = |line: &mut String| {
        let n = head.read_line(line)?;
        if head.limit() == 0 && !line.ends_with('\n') {
            return Err(bad("request head too large"));
        }
        Ok(n)
    };
    let mut line = String::new();
    read_head_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no path"))?;
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::new(),
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if read_head_line(&mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("body too large"));
                }
            }
        }
    }
    if content_length == 0 {
        return Ok(request);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
        ..request
    })
}

/// The reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one JSON response and flush it. The connection is closed by the
/// caller dropping the stream.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response_with(stream, status, &[], body)
}

/// [`write_response`] with extra response headers (each a `(name, value)`
/// pair, e.g. `("retry-after", "2")` on a 503).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        let _ = std::fmt::Write::write_fmt(&mut head, format_args!("{name}: {value}\r\n"));
    }
    let _ = std::fmt::Write::write_fmt(
        &mut head,
        format_args!(
            "content-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        ),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Start a chunked response: status line plus
/// `Transfer-Encoding: chunked` headers, no body yet. Follow with any
/// number of [`write_chunk`] calls and one [`finish_chunks`].
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_chunked_head(stream: &mut TcpStream, status: u16) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        reason(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Write one chunk of a chunked response and flush it so the client sees
/// it immediately. Empty data is skipped (a zero-length chunk would
/// terminate the stream).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked response (the zero-length chunk).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Write one request onto a client stream and flush it.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: verifd\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One parsed response: status, lower-cased headers, full body (chunked
/// bodies arrive reassembled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// All response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (chunked transfer decoded).
    pub body: String,
}

impl Response {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read one response off a client stream, returning `(status, body)`.
///
/// # Errors
///
/// Fails on I/O errors or a malformed status line / `Content-Length`.
pub fn read_response(stream: &TcpStream) -> std::io::Result<(u16, String)> {
    let response = read_response_streaming(stream, &mut |_| {})?;
    Ok((response.status, response.body))
}

/// Read one full response off a client stream, headers included.
///
/// # Errors
///
/// As [`read_response`].
pub fn read_response_full(stream: &TcpStream) -> std::io::Result<Response> {
    read_response_streaming(stream, &mut |_| {})
}

/// Read one response, invoking `on_chunk` with each transfer chunk as it
/// arrives (for fixed-length and read-to-close bodies, `on_chunk` fires
/// once with the whole body). The returned [`Response`] still carries the
/// reassembled body.
///
/// # Errors
///
/// As [`read_response`], plus malformed chunk framing.
pub fn read_response_streaming(
    stream: &TcpStream,
    on_chunk: &mut dyn FnMut(&str),
) -> std::io::Result<Response> {
    let bad = |reason: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let utf8 = |buf: Vec<u8>| String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            }
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
            headers.push((name, value));
        }
    }
    let body = if chunked {
        let mut body = String::new();
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                return Err(bad("connection closed inside chunk framing"));
            }
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if &chunk[size..] != b"\r\n" {
                return Err(bad("chunk missing terminator"));
            }
            chunk.truncate(size);
            if size == 0 {
                break;
            }
            let chunk = utf8(chunk)?;
            on_chunk(&chunk);
            body.push_str(&chunk);
        }
        body
    } else {
        let buf = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                buf
            }
            // No length: the server closes the connection after the body.
            None => {
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        };
        let body = utf8(buf)?;
        if !body.is_empty() {
            on_chunk(&body);
        }
        body
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}
