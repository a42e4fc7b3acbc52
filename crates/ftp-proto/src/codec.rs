//! Control-channel line framing: CRLF splitting with Telnet IAC handling.
//!
//! FTP's control channel is a Telnet NVT stream (RFC 959 §3.1). Real
//! servers occasionally emit Telnet IAC sequences or bare-LF line
//! endings; the paper's enumerator had to tolerate both. [`LineCodec`]
//! accumulates bytes and yields complete decoded lines.
//!
//! The hot path is borrowed end to end: [`LineCodec::next_line_str`]
//! frames a line in place inside the internal buffer (IAC sequences are
//! compacted in place only when an IAC byte is actually present) and
//! hands out a `&str` view of it. The line's bytes stay at the front of
//! the buffer until the next codec call consumes them, so a clean ASCII
//! line — the overwhelming case — is decoded with zero allocations and
//! zero copies. Invalid UTF-8 falls back to one reusable lossy scratch
//! per codec. A caller that keeps a line copies it.

use crate::error::ProtoError;
use bytes::BytesMut;

/// Telnet "Interpret As Command" escape byte.
const IAC: u8 = 255;

/// Maximum accepted control-channel line length. Real clients impose a
/// similar cap to defend against hostile servers streaming an unbounded
/// "line"; the enumerator treats an over-long line as server misbehavior.
pub const MAX_LINE: usize = 8192;

/// Incremental CRLF line decoder with Telnet IAC stripping.
///
/// # Example
///
/// ```
/// use ftp_proto::LineCodec;
///
/// let mut codec = LineCodec::new();
/// codec.extend(b"220 Welcome\r\n331 Pas");
/// assert_eq!(codec.next_line_str()?, Some("220 Welcome"));
/// assert_eq!(codec.next_line_str()?, None);
/// codec.extend(b"sword required\r\n");
/// assert_eq!(codec.next_line_str()?, Some("331 Password required"));
/// # Ok::<(), ftp_proto::ProtoError>(())
/// ```
#[derive(Debug, Default)]
pub struct LineCodec {
    buf: BytesMut,
    /// Bytes at the front of `buf` belonging to the line handed out by
    /// the previous [`LineCodec::next_line_str`] call; consumed lazily
    /// by the next codec call so the returned `&str` can borrow them.
    pending: usize,
    /// Reused decode buffer for the rare line holding invalid UTF-8.
    lossy: String,
}

impl LineCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the line handed out by the previous borrowed call.
    fn flush_pending(&mut self) {
        if self.pending > 0 {
            self.buf.advance(self.pending);
            self.pending = 0;
        }
    }

    /// Appends raw bytes received from the network.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.flush_pending();
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pending
    }

    /// Length of the trailing unterminated tail (bytes after the last
    /// `\n`, or the whole buffer when no terminator is present).
    ///
    /// Callers that must frame a whole batch before dispatching any of
    /// it use this to detect the over-long-line condition up front:
    /// [`LineCodec::next_line_str`] fails exactly when this exceeds
    /// [`MAX_LINE`] after every terminated line has been drained.
    pub fn unterminated_tail_len(&self) -> usize {
        let live = &self.buf[self.pending..];
        match live.iter().rposition(|&b| b == b'\n') {
            Some(pos) => live.len() - pos - 1,
            None => live.len(),
        }
    }

    /// Extracts the next complete line as a borrowed `&str` view into
    /// the codec's internal buffer.
    ///
    /// Lines are terminated by `\r\n` or a bare `\n`; the terminator is
    /// consumed and not included. Telnet IAC escape sequences are
    /// compacted in place (only when an IAC byte is present); non-UTF-8
    /// bytes are replaced with U+FFFD via a reusable scratch buffer (the
    /// enumerator must not abort on binary junk — filenames in the wild
    /// are in many encodings). The returned slice stays valid until the
    /// next call on this codec.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::LineTooLong`] when more than [`MAX_LINE`]
    /// bytes accumulate without a terminator.
    pub fn next_line_str(&mut self) -> Result<Option<&str>, ProtoError> {
        self.flush_pending();
        let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else {
            if self.buf.len() > MAX_LINE {
                let len = self.buf.len();
                self.buf.clear();
                return Err(ProtoError::LineTooLong { len });
            }
            return Ok(None);
        };
        // Drop the trailing \n and optional \r.
        let mut end = pos;
        if end > 0 && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        // The terminator (and any bytes IAC compaction leaves dead
        // between `end` and it) is consumed on the next call.
        self.pending = pos + 1;
        if self.buf[..end].contains(&IAC) {
            end = strip_iac_in_place(&mut self.buf[..end]);
        }
        // Validity probed with a bool first so the borrow handed back on
        // the common path never overlaps the lossy-scratch fallback.
        if std::str::from_utf8(&self.buf[..end]).is_ok() {
            obs::counter(obs::Counter::CodecLinesBorrowed, 1);
            let line = &self.buf[..end];
            return Ok(Some(std::str::from_utf8(line).expect("just validated")));
        }
        obs::counter(obs::Counter::CodecLinesCopied, 1);
        self.lossy.clear();
        lossy_append(&mut self.lossy, &self.buf[..end]);
        Ok(Some(&self.lossy))
    }

    /// Like [`LineCodec::next_line_str`], but copies the line into a
    /// caller-provided buffer that outlives the next codec call.
    ///
    /// `out` is cleared first; returns `Ok(true)` when a complete line
    /// was decoded into it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::LineTooLong`] when more than [`MAX_LINE`]
    /// bytes accumulate without a terminator.
    pub fn next_line_into(&mut self, out: &mut String) -> Result<bool, ProtoError> {
        out.clear();
        match self.next_line_str()? {
            Some(line) => {
                out.push_str(line);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Drains any trailing unterminated data (used at connection close —
    /// some servers send a final line without CRLF before hanging up).
    pub fn take_remainder(&mut self) -> Option<String> {
        self.flush_pending();
        if self.buf.is_empty() {
            return None;
        }
        let len = strip_iac_in_place(&mut self.buf);
        let mut out = String::with_capacity(len);
        lossy_append(&mut out, &self.buf[..len]);
        self.buf.clear();
        Some(out)
    }
}

/// Removes Telnet IAC sequences in place and returns the new length:
/// `IAC IAC` unescapes to a literal 255, `IAC <cmd>` and `IAC <cmd> <opt>`
/// are dropped, and so is a dangling IAC at the end. The write cursor
/// never passes the read cursor, so the compaction is a single forward
/// pass.
fn strip_iac_in_place(bytes: &mut [u8]) -> usize {
    let mut w = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == IAC {
            match bytes.get(i + 1) {
                Some(&IAC) => {
                    bytes[w] = IAC;
                    w += 1;
                    i += 2;
                }
                Some(&cmd) if (251..=254).contains(&cmd) => i += 3,
                Some(_) => i += 2,
                None => i += 1,
            }
        } else {
            bytes[w] = bytes[i];
            w += 1;
            i += 1;
        }
    }
    w
}

/// Appends `bytes` to `out` with invalid UTF-8 replaced by U+FFFD, using
/// the same maximal-subpart substitution as `String::from_utf8_lossy`
/// but without allocating an intermediate `String`.
pub fn lossy_append(out: &mut String, mut bytes: &[u8]) {
    loop {
        match std::str::from_utf8(bytes) {
            Ok(s) => {
                out.push_str(s);
                return;
            }
            Err(e) => {
                let (valid, rest) = bytes.split_at(e.valid_up_to());
                out.push_str(std::str::from_utf8(valid).expect("prefix is valid"));
                out.push('\u{FFFD}');
                let skip = e.error_len().unwrap_or(rest.len());
                bytes = &rest[skip..];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_crlf_lines() {
        let mut c = LineCodec::new();
        c.extend(b"a\r\nb\r\n");
        assert_eq!(c.next_line_str().unwrap(), Some("a"));
        assert_eq!(c.next_line_str().unwrap(), Some("b"));
        assert_eq!(c.next_line_str().unwrap(), None);
    }

    #[test]
    fn tolerates_bare_lf() {
        let mut c = LineCodec::new();
        c.extend(b"hello\nworld\n");
        assert_eq!(c.next_line_str().unwrap(), Some("hello"));
        assert_eq!(c.next_line_str().unwrap(), Some("world"));
    }

    #[test]
    fn partial_lines_buffered() {
        let mut c = LineCodec::new();
        c.extend(b"par");
        assert_eq!(c.next_line_str().unwrap(), None);
        assert_eq!(c.buffered(), 3);
        c.extend(b"tial\r\n");
        assert_eq!(c.next_line_str().unwrap(), Some("partial"));
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn strips_telnet_negotiation() {
        let mut c = LineCodec::new();
        // IAC WILL <option 1> before text, and escaped IAC IAC inside.
        c.extend(&[255, 251, 1]);
        c.extend(b"OK");
        c.extend(&[255, 255]);
        c.extend(b"\r\n");
        let line = c.next_line_str().unwrap().unwrap();
        assert!(line.starts_with("OK"));
        assert_eq!(line.as_bytes().last(), Some(&0xbd)); // U+FFFD tail byte of lossy 255
    }

    #[test]
    fn non_utf8_is_lossy_not_fatal() {
        let mut c = LineCodec::new();
        c.extend(&[0xC3, 0x28, b'\r', b'\n']); // invalid UTF-8 pair
        let line = c.next_line_str().unwrap().unwrap();
        assert!(line.contains('\u{FFFD}'));
    }

    #[test]
    fn overlong_line_errors_and_resets() {
        let mut c = LineCodec::new();
        c.extend(&vec![b'x'; MAX_LINE + 1]);
        assert!(matches!(c.next_line_str(), Err(ProtoError::LineTooLong { .. })));
        // State is cleared so the session can resync.
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn take_remainder_flushes_unterminated_tail() {
        let mut c = LineCodec::new();
        c.extend(b"221 Goodbye");
        assert_eq!(c.next_line_str().unwrap(), None);
        assert_eq!(c.take_remainder().as_deref(), Some("221 Goodbye"));
        assert_eq!(c.take_remainder().as_deref(), None);
    }

    #[test]
    fn borrowed_line_survives_until_next_call() {
        let mut c = LineCodec::new();
        c.extend(b"first\r\nsecond\r\n");
        let first = c.next_line_str().unwrap().unwrap().to_owned();
        assert_eq!(first, "first");
        // The first line's bytes are consumed lazily; the second line
        // must still frame correctly behind them.
        assert_eq!(c.next_line_str().unwrap(), Some("second"));
        assert_eq!(c.next_line_str().unwrap(), None);
        assert_eq!(c.buffered(), 0);
    }

    #[test]
    fn iac_straddles_chunk_boundary() {
        // An escaped IAC IAC split across two network chunks must still
        // unescape to a single literal 255 once the line completes.
        let mut c = LineCodec::new();
        c.extend(&[b'x', 255]);
        assert_eq!(c.next_line_str().unwrap(), None);
        c.extend(&[255, b'y', b'\r', b'\n']);
        let line = c.next_line_str().unwrap().unwrap();
        // x + lossy(255) + y
        assert_eq!(line, "x\u{FFFD}y");

        // And a WILL <opt> negotiation split one byte per chunk.
        let mut c = LineCodec::new();
        c.extend(&[255]);
        c.extend(&[251]);
        c.extend(&[1]);
        c.extend(b"ok\n");
        assert_eq!(c.next_line_str().unwrap(), Some("ok"));
    }

    #[test]
    fn iac_escapes_in_lines_and_remainders() {
        // IAC WILL <opt> is dropped; text around it is kept.
        let mut c = LineCodec::new();
        c.extend(&[b'a', 255, 251, 1, b'b', b'\r', b'\n']);
        assert_eq!(c.next_line_str().unwrap(), Some("ab"));
        // Escaped IAC IAC unescapes to one literal 255 (lossy-decoded).
        c.extend(&[255, 255, b'\n']);
        assert_eq!(c.next_line_str().unwrap(), Some("\u{FFFD}"));
        // The unterminated remainder gets the same stripping, and a
        // dangling IAC at end-of-buffer is dropped, not kept.
        c.extend(&[b'a', 255, 251, 1, b'b', 255, 255, b'c', 255]);
        assert_eq!(c.take_remainder().as_deref(), Some("ab\u{FFFD}c"));
        c.extend(b"clean");
        assert_eq!(c.take_remainder().as_deref(), Some("clean"));
    }

    #[test]
    fn take_remainder_strips_iac_without_extra_copies() {
        let mut c = LineCodec::new();
        c.extend(&[b'2', b'2', b'1', 255, 251, 1, b' ', b'b', b'y', b'e']);
        assert_eq!(c.take_remainder().as_deref(), Some("221 bye"));
    }

    #[test]
    fn unterminated_tail_len_tracks_last_newline() {
        let mut c = LineCodec::new();
        c.extend(b"one\r\ntwo\r\npartial");
        assert_eq!(c.unterminated_tail_len(), 7);
        assert_eq!(c.next_line_str().unwrap(), Some("one"));
        assert_eq!(c.next_line_str().unwrap(), Some("two"));
        assert_eq!(c.unterminated_tail_len(), 7);
        c.extend(b"\r\n");
        assert_eq!(c.unterminated_tail_len(), 0);
    }

    #[test]
    fn lossy_append_matches_from_utf8_lossy() {
        let cases: &[&[u8]] = &[
            b"plain ascii",
            &[0xC3, 0x28],
            &[0xE2, 0x82],
            &[0xE2, 0x82, 0xAC],
            &[0xF0, 0x9F, 0x92],
            &[0xFF, 0x0D, 0x41],
            &[],
        ];
        for case in cases {
            let mut out = String::new();
            lossy_append(&mut out, case);
            assert_eq!(out, String::from_utf8_lossy(case), "case {case:?}");
        }
    }
}
