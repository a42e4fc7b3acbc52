//! FTP server replies: three-digit codes, multiline reply assembly and
//! the RFC 959 wire framing.

use crate::decimal;
use crate::error::ProtoError;
use std::fmt;

/// A three-digit FTP reply code (RFC 959 §4.2).
///
/// The wrapper gives the digit classes names, because the enumerator's
/// decision logic ("is this a success? should I retry? give up?") is
/// driven entirely by the first digit — the paper notes that the *text*
/// attached to a code is implementation- and language-specific and cannot
/// be relied upon (§II gives four different meanings of 331).
///
/// # Example
///
/// ```
/// use ftp_proto::ReplyCode;
///
/// let code = ReplyCode::new(230);
/// assert!(code.is_positive_completion());
/// assert!(!code.is_transient_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplyCode(u16);

impl ReplyCode {
    /// Service ready for new user.
    pub const SERVICE_READY: ReplyCode = ReplyCode(220);
    /// Service closing control connection.
    pub const SERVICE_CLOSING: ReplyCode = ReplyCode(221);
    /// User logged in, proceed.
    pub const LOGGED_IN: ReplyCode = ReplyCode(230);
    /// Requested file action okay, completed.
    pub const FILE_ACTION_OK: ReplyCode = ReplyCode(250);
    /// `PATHNAME` created (also `PWD` response).
    pub const PATHNAME_CREATED: ReplyCode = ReplyCode(257);
    /// User name okay, need password.
    pub const NEED_PASSWORD: ReplyCode = ReplyCode(331);
    /// Entering passive mode.
    pub const ENTERING_PASSIVE: ReplyCode = ReplyCode(227);
    /// Not logged in.
    pub const NOT_LOGGED_IN: ReplyCode = ReplyCode(530);
    /// Requested action not taken (file unavailable).
    pub const FILE_UNAVAILABLE: ReplyCode = ReplyCode(550);

    /// Wraps a raw code. Values outside `100..=599` are preserved as-is;
    /// real servers emit junk and the enumerator must carry it through.
    pub fn new(code: u16) -> Self {
        ReplyCode(code)
    }

    /// The raw numeric value.
    pub fn value(self) -> u16 {
        self.0
    }

    /// First digit is 1: positive preliminary (e.g. `150 Opening data
    /// connection`).
    pub fn is_positive_preliminary(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// First digit is 2: positive completion.
    pub fn is_positive_completion(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// First digit is 3: positive intermediate (more input wanted).
    pub fn is_positive_intermediate(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// First digit is 4: transient negative completion (retryable).
    pub fn is_transient_negative(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// First digit is 5: permanent negative completion.
    pub fn is_permanent_negative(self) -> bool {
        (500..600).contains(&self.0)
    }
}

impl fmt::Display for ReplyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03}", self.0)
    }
}

impl From<u16> for ReplyCode {
    fn from(v: u16) -> Self {
        ReplyCode(v)
    }
}

/// Appends one reply in RFC 959 wire framing to `out`: `ddd text` for a
/// single line; otherwise `ddd-first`, then ` middle` lines, then
/// `ddd last`. Every line ends in CRLF; empty `lines` write nothing.
///
/// # Example
///
/// ```
/// use ftp_proto::reply::reply;
///
/// let mut wire = String::new();
/// reply(&mut wire, 250, ["Okay"]);
/// reply(&mut wire, 211, ["Features:", "MDTM", "End"]);
/// assert_eq!(wire, "250 Okay\r\n211-Features:\r\n MDTM\r\n211 End\r\n");
/// ```
pub fn reply<'a>(out: &mut String, code: u16, lines: impl IntoIterator<Item = &'a str>) {
    let mut lines = lines.into_iter().peekable();
    let mut first = true;
    while let Some(line) = lines.next() {
        let last = lines.peek().is_none();
        if first || last {
            decimal::push_u64(out, u64::from(code), 3, '0');
            out.push(if last { ' ' } else { '-' });
        } else {
            out.push(' ');
        }
        out.push_str(line);
        out.push_str("\r\n");
        first = false;
    }
}

/// Splits `"230 Login ok"` into `(230, ' ', "Login ok")`.
fn split_reply_line(line: &str) -> Option<(u16, char, &str)> {
    let b = line.as_bytes();
    if b.len() < 3 || !b[..3].iter().all(u8::is_ascii_digit) {
        return None;
    }
    let code: u16 = line[..3].parse().ok()?;
    match b.get(3) {
        None => Some((code, ' ', "")),
        Some(b' ') => Some((code, ' ', &line[4..])),
        Some(b'-') => Some((code, '-', &line[4..])),
        // Some implementations jam text against the code ("220Welcome").
        Some(_) => Some((code, ' ', &line[3..])),
    }
}

/// A borrowed view of one complete reply: the code plus a slice of the
/// assembled text (lines joined with `\n`).
///
/// Every reply the enumerator and the scripted clients read is decoded
/// through [`ReplyBuf`] into one of these (see DESIGN.md §8). Lifetime
/// is tied to the [`ReplyBuf`] (or other buffer) the text lives in,
/// which stays valid until the next `push_line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRef<'a> {
    code: ReplyCode,
    text: &'a str,
    line_count: usize,
}

impl<'a> ReplyRef<'a> {
    /// Builds a view over already-joined reply text (`\n` separators).
    pub fn new(code: impl Into<ReplyCode>, text: &'a str) -> Self {
        ReplyRef { code: code.into(), text, line_count: text.split('\n').count() }
    }

    /// The reply code.
    pub fn code(self) -> ReplyCode {
        self.code
    }

    /// The first line of text — for banners and quick matching.
    pub fn text(self) -> &'a str {
        match self.text.split_once('\n') {
            Some((first, _)) => first,
            None => self.text,
        }
    }

    /// All lines joined with `\n`.
    pub fn full_text(self) -> &'a str {
        self.text
    }

    /// Iterates the text lines (without codes or CRLF).
    pub fn lines(self) -> std::str::Split<'a, char> {
        self.text.split('\n')
    }

    /// Number of text lines.
    pub fn line_count(self) -> usize {
        self.line_count
    }

    /// Whether the reply spans more than one line — O(1), unlike
    /// collecting [`ReplyRef::lines`] just to test its length.
    pub fn has_multiple_lines(self) -> bool {
        self.line_count > 1
    }
}

/// Incremental assembler for (possibly multiline) replies, with a
/// reusable text buffer.
///
/// Feed complete lines via [`ReplyBuf::push_line`]; a `Some(ReplyRef)`
/// return borrows the assembled text straight out of the buffer, which
/// is recycled for the next reply instead of reallocated. The assembler
/// implements the real-world tolerance the paper's enumerator needed:
/// continuation lines need not repeat the code, inner lines may start
/// with digits, and a terminator is a strict `ddd<SP>` (or bare `ddd`)
/// line repeating the opening code.
///
/// # Example
///
/// ```
/// use ftp_proto::ReplyBuf;
///
/// let mut p = ReplyBuf::new();
/// assert!(p.push_line("230-Welcome to example FTP").unwrap().is_none());
/// assert!(p.push_line("Mirror of ftp.example.org").unwrap().is_none());
/// let reply = p.push_line("230 Login successful").unwrap().unwrap();
/// assert_eq!(reply.code().value(), 230);
/// assert_eq!(reply.line_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplyBuf {
    code: u16,
    /// Lines assembled so far, joined with `\n`.
    text: String,
    line_count: usize,
    in_progress: bool,
}

impl ReplyBuf {
    /// Creates an idle assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a multiline reply is partially assembled.
    pub fn in_progress(&self) -> bool {
        self.in_progress
    }

    /// Feeds one line (trailing CR/LF tolerated). Returns a borrowed
    /// view of the completed reply, valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::BadReplyCode`] only when a *fresh* reply
    /// line lacks a leading code; continuation lines are accepted
    /// verbatim.
    pub fn push_line(&mut self, line: &str) -> Result<Option<ReplyRef<'_>>, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if !self.in_progress {
            let (code, sep, text) =
                split_reply_line(line).ok_or_else(|| ProtoError::bad_reply(line))?;
            self.code = code;
            self.text.clear();
            self.text.push_str(text);
            self.line_count = 1;
            if sep == '-' {
                self.in_progress = true;
                return Ok(None);
            }
            return Ok(Some(ReplyRef {
                code: ReplyCode(code),
                text: &self.text,
                line_count: 1,
            }));
        }
        // A terminator must be a *strict* `ddd<SP>` (or bare `ddd`) line
        // repeating the opening code — the jammed-text tolerance applied
        // to fresh replies would otherwise misread inner lines like
        // "211x ..." as terminators.
        let strict_sep = line.len() == 3 || line.as_bytes().get(3) == Some(&b' ');
        if strict_sep {
            if let Some((code, ' ', text)) = split_reply_line(line) {
                if code == self.code {
                    self.text.push('\n');
                    self.text.push_str(text);
                    self.line_count += 1;
                    self.in_progress = false;
                    return Ok(Some(ReplyRef {
                        code: ReplyCode(code),
                        text: &self.text,
                        line_count: self.line_count,
                    }));
                }
            }
        }
        // Continuation line: strip the conventional leading space.
        let text = line.strip_prefix(' ').unwrap_or(line);
        self.text.push('\n');
        self.text.push_str(text);
        self.line_count += 1;
        Ok(None)
    }

    /// Signals end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::TruncatedReply`] if a multiline reply was
    /// still being assembled — the server hung up mid-reply, which the
    /// enumerator treats as refusal of service.
    pub fn finish(&mut self) -> Result<(), ProtoError> {
        if std::mem::take(&mut self.in_progress) {
            Err(ProtoError::TruncatedReply)
        } else {
            Ok(())
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `lines` through a fresh [`ReplyBuf`] and returns the first
    /// completed reply as `(code, lines joined with \n)`.
    fn assemble(lines: &[&str]) -> Option<(u16, String)> {
        let mut b = ReplyBuf::new();
        for line in lines {
            if let Some(r) = b.push_line(line).unwrap() {
                return Some((r.code().value(), r.full_text().to_owned()));
            }
        }
        None
    }

    /// A minimal line-vector reply assembler with the tolerance rules
    /// spelled out one by one — the reference [`ReplyBuf`] must match.
    #[derive(Default)]
    struct ReferenceAssembler {
        pending: Option<(u16, Vec<String>)>,
    }

    impl ReferenceAssembler {
        fn push_line(&mut self, line: &str) -> Result<Option<(u16, Vec<String>)>, ProtoError> {
            let line = line.trim_end_matches(['\r', '\n']);
            let Some((open_code, lines)) = &mut self.pending else {
                let (code, sep, text) =
                    split_reply_line(line).ok_or_else(|| ProtoError::bad_reply(line))?;
                if sep == '-' {
                    self.pending = Some((code, vec![text.to_owned()]));
                    return Ok(None);
                }
                return Ok(Some((code, vec![text.to_owned()])));
            };
            let strict_sep = line.len() == 3 || line.as_bytes().get(3) == Some(&b' ');
            if let (true, Some((code, ' ', text))) = (strict_sep, split_reply_line(line)) {
                if code == *open_code {
                    lines.push(text.to_owned());
                    return Ok(self.pending.take());
                }
            }
            lines.push(line.strip_prefix(' ').unwrap_or(line).to_owned());
            Ok(None)
        }
    }

    #[test]
    fn code_classes() {
        assert!(ReplyCode::new(150).is_positive_preliminary());
        assert!(ReplyCode::new(230).is_positive_completion());
        assert!(ReplyCode::new(331).is_positive_intermediate());
        assert!(ReplyCode::new(421).is_transient_negative());
        assert!(ReplyCode::new(530).is_permanent_negative());
    }

    #[test]
    fn single_line_parse() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("220 ProFTPD 1.3.5 Server ready.\r\n").unwrap().unwrap();
        assert_eq!(r.code(), ReplyCode::SERVICE_READY);
        assert_eq!(r.text(), "ProFTPD 1.3.5 Server ready.");
    }

    #[test]
    fn jammed_text_tolerated() {
        assert_eq!(assemble(&["220Welcome"]), Some((220, "Welcome".into())));
    }

    #[test]
    fn bare_code_tolerated() {
        assert_eq!(assemble(&["230"]), Some((230, String::new())));
    }

    #[test]
    fn garbage_rejected() {
        assert!(ReplyBuf::new().push_line("hello world").is_err());
        assert!(ReplyBuf::new().push_line("22 partial").is_err());
    }

    #[test]
    fn multiline_assembly() {
        let mut p = ReplyBuf::new();
        assert_eq!(p.push_line("220-Welcome").unwrap(), None);
        assert!(p.in_progress());
        assert_eq!(p.push_line(" to the machine").unwrap(), None);
        let r = p.push_line("220 Ready").unwrap().unwrap();
        assert_eq!(r.line_count(), 3);
        assert_eq!(r.lines().nth(1), Some("to the machine"));
        assert!(!p.in_progress());
    }

    #[test]
    fn multiline_inner_lines_with_other_codes() {
        // Some servers embed digit-leading lines mid-reply.
        let mut p = ReplyBuf::new();
        p.push_line("211-Features:").unwrap();
        assert_eq!(p.push_line("211x not terminator").unwrap(), None);
        assert_eq!(p.push_line("500 different code is continuation").unwrap(), None);
        let r = p.push_line("211 End").unwrap().unwrap();
        assert_eq!(r.code().value(), 211);
        assert_eq!(r.line_count(), 4);
    }

    #[test]
    fn truncated_multiline_detected() {
        let mut p = ReplyBuf::new();
        p.push_line("220-Hello").unwrap();
        assert_eq!(p.finish(), Err(ProtoError::TruncatedReply));
        // finish() clears state.
        assert!(p.finish().is_ok());
    }

    #[test]
    fn wire_roundtrip_single() {
        let mut wire = String::new();
        reply(&mut wire, 250, ["Okay"]);
        assert_eq!(wire, "250 Okay\r\n");
        assert_eq!(assemble(&[wire.trim_end()]), Some((250, "Okay".into())));
    }

    #[test]
    fn wire_roundtrip_multiline() {
        let mut wire = String::new();
        reply(&mut wire, 230, ["a", "b", "c"]);
        assert_eq!(wire, "230-a\r\n b\r\n230 c\r\n");
        let lines: Vec<&str> = wire.lines().collect();
        assert_eq!(assemble(&lines), Some((230, "a\nb\nc".into())));
    }

    #[test]
    fn reply_appends_and_pads_the_code() {
        let mut wire = String::from("x");
        reply(&mut wire, 7, ["low"]);
        reply(&mut wire, 214, std::iter::empty());
        assert_eq!(wire, "x007 low\r\n");
    }

    #[test]
    fn reply_buf_single_line() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("220 Ready\r\n").unwrap().unwrap();
        assert_eq!(r.code().value(), 220);
        assert_eq!(r.text(), "Ready");
        assert_eq!(r.full_text(), "Ready");
        assert!(!r.has_multiple_lines());
        assert_eq!(r.line_count(), 1);
    }

    #[test]
    fn reply_buf_multiline_and_reuse() {
        let mut b = ReplyBuf::new();
        assert!(b.push_line("230-Welcome").unwrap().is_none());
        assert!(b.in_progress());
        assert!(b.push_line(" to the machine").unwrap().is_none());
        {
            let r = b.push_line("230 Ready").unwrap().unwrap();
            assert_eq!(r.line_count(), 3);
            assert!(r.has_multiple_lines());
            assert_eq!(r.text(), "Welcome");
            assert_eq!(r.full_text(), "Welcome\nto the machine\nReady");
            assert_eq!(r.lines().nth(1), Some("to the machine"));
        }
        // The buffer is recycled: the next reply starts clean.
        let r = b.push_line("221 Bye").unwrap().unwrap();
        assert_eq!(r.full_text(), "Bye");
        assert_eq!(r.line_count(), 1);
    }

    #[test]
    fn reply_buf_matches_reply_parser() {
        let streams: &[&[&str]] = &[
            &["220 ProFTPD ready"],
            &["220Welcome"],
            &["230"],
            &["211-Features:", "211x not terminator", "500 other code", "211 End"],
            &["230-Welcome", " indented", "plain", "230 Done"],
        ];
        for stream in streams {
            let mut reference = ReferenceAssembler::default();
            let mut borrowed = ReplyBuf::new();
            for line in *stream {
                let a = reference.push_line(line).unwrap();
                let b = borrowed.push_line(line).unwrap();
                match (a, b) {
                    (None, None) => {}
                    (Some((code, lines)), Some(b)) => {
                        assert_eq!(b.code().value(), code);
                        assert_eq!(b.full_text(), lines.join("\n"));
                        assert_eq!(b.line_count(), lines.len());
                        assert!(b.lines().eq(lines.iter().map(String::as_str)));
                    }
                    (a, b) => panic!("parser divergence on {line:?}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn reply_buf_truncation_detected() {
        let mut b = ReplyBuf::new();
        b.push_line("220-Hello").unwrap();
        assert_eq!(b.finish(), Err(ProtoError::TruncatedReply));
        assert!(b.finish().is_ok());
        // And garbage on a fresh line still errors.
        assert!(b.push_line("garbage").is_err());
    }

    #[test]
    fn reply_ref_view_helpers() {
        let r = ReplyRef::new(211u16, "Features:\nMDTM\nEnd");
        assert_eq!(r.line_count(), 3);
        assert!(r.has_multiple_lines());
        assert_eq!(r.text(), "Features:");
        assert_eq!(r.lines().collect::<Vec<_>>(), ["Features:", "MDTM", "End"]);
    }
}
