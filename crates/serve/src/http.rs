//! A hand-rolled HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The workspace builds without external crates, so the daemon speaks
//! exactly the subset of HTTP/1.1 it needs: one request per connection
//! (`Connection: close` on every response), `Content-Length` bodies on
//! requests and plain responses, and `Transfer-Encoding: chunked` for
//! the live trace/analysis streams whose length is unknown while the
//! job is still running. Both the server and the [`crate::client`]
//! module use the same reader/writer helpers, so the wire format is
//! exercised end-to-end by every integration test.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body (a scene document).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Header (lower-cased name, value) pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lower-cased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key` (`k=v` pairs split on `&`).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Read one request off `stream`. `Ok(None)` means the peer closed the
/// connection before sending anything (a clean no-op). Malformed or
/// oversized requests are `Err` — the caller answers 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut r = BufReader::new(stream);
    let mut head = Vec::new();
    // Read byte-wise up to the blank line; request heads are tiny and
    // BufReader amortizes the syscalls.
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(bad("connection closed mid-request"));
            }
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD {
            return Err(bad("request head too large"));
        }
    }
    let head = String::from_utf8(head).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    if parts.next() != Some("HTTP/1.1") && !request_line.ends_with("HTTP/1.0") {
        return Err(bad("not an HTTP/1.x request"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a complete response with a `Content-Length` body and close
/// semantics, head and body in one write.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)
}

/// Start a chunked response; follow with [`write_chunk`] calls and one
/// [`end_chunks`].
pub fn start_chunked(stream: &mut TcpStream, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status)
    );
    stream.write_all(head.as_bytes())
}

/// Write one non-empty chunk (an empty chunk would terminate the
/// stream, so zero-length writes are skipped). The size line, `data`
/// and the closing CRLF go out in one vectored write (more only if the
/// socket takes part of it).
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let size = format!("{:x}\r\n", data.len());
    let mut parts = [
        IoSlice::new(size.as_bytes()),
        IoSlice::new(data),
        IoSlice::new(b"\r\n"),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Terminate a chunked response.
pub fn end_chunks(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")
}

/// One parsed response, as read by the client side.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value, empty when absent.
    pub content_type: String,
    /// The body, chunked transfer decoded when the server streamed it.
    pub body: Vec<u8>,
}

/// Read a complete response (client side). Decodes
/// `Transfer-Encoding: chunked`; otherwise honours `Content-Length`,
/// falling back to read-to-EOF (legal under `Connection: close`).
pub fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_type = String::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
        match k.as_str() {
            "content-type" => content_type = v.to_string(),
            "content-length" => {
                content_length = Some(v.parse().map_err(|_| bad("bad content-length"))?)
            }
            "transfer-encoding" => chunked = v.eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            r.read_line(&mut size_line)?;
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                let mut crlf = String::new();
                let _ = r.read_line(&mut crlf);
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..])?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
        }
    } else if let Some(len) = content_length {
        body.resize(len, 0);
        r.read_exact(&mut body)?;
    } else {
        r.read_to_end(&mut body)?;
    }
    Ok(Response {
        status,
        content_type,
        body,
    })
}
