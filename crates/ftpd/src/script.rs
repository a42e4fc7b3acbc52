//! A scripted FTP client: drives one session through a fixed sequence of
//! actions and records everything.
//!
//! This is the crate's test harness for [`crate::FtpServerEngine`] and
//! doubles as the building block for the honeypot crate's attacker
//! models (§VIII): a credential brute-forcer, a write-prober, or a
//! `PORT`-bounce tester is just a list of [`Action`]s replayed against a
//! target.

use ftp_proto::{HostPort, LineCodec, ReplyBuf, ReplyCode, ReplyRef};
use netsim::{ConnId, ConnectError, Ctx, Endpoint};
use simtls::SimCertificate;
use std::net::Ipv4Addr;

/// One step of a scripted session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a raw command line (CRLF appended) and wait for one complete
    /// reply.
    Send(String),
    /// Send `PASV`, parse the `227` reply, and connect the data channel.
    OpenPasv,
    /// Send a retrieval command (`LIST`/`RETR …`) over an open passive
    /// data channel; collect data until the channel closes and the final
    /// control reply arrives.
    TransferGet(String),
    /// Send a store command (`STOR …`), push the bytes on the data
    /// channel, close it, and wait for the final reply.
    TransferPut(String, Vec<u8>),
    /// Perform the simulated TLS handshake (`AUTH TLS` + hello exchange)
    /// and record the server certificate.
    TlsHandshake,
    /// Send `QUIT` and stop.
    Quit,
}

/// What the client is waiting for before advancing the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    Start,
    Banner,
    Reply,
    PasvReply,
    DataConn,
    /// Transfer: need final reply AND data-channel close.
    Transfer { got_reply: bool, data_closed: bool },
    TlsAuthReply,
    TlsCert,
    Done,
}

/// Scripted client endpoint. Register, then kick with
/// [`netsim::Simulator::schedule_timer`] (any token); results are
/// readable after the run via the accessor methods (downcast through
/// [`netsim::Simulator::take_endpoint`]).
#[derive(Debug)]
pub struct ScriptedFtpClient {
    src_ip: Ipv4Addr,
    dst: (Ipv4Addr, u16),
    script: Vec<Action>,
    pc: usize,
    waiting: Waiting,
    control: Option<ConnId>,
    codec: LineCodec,
    parser: ReplyBuf,
    /// Every completed reply: its code and its lines joined with `\n`.
    replies: Vec<(ReplyCode, String)>,
    data_conn: Option<ConnId>,
    data_buf: Vec<u8>,
    downloads: Vec<(String, Vec<u8>)>,
    pasv_addr: Option<HostPort>,
    cert: Option<SimCertificate>,
    connect_failed: bool,
    finished: bool,
    pending_upload: Option<Vec<u8>>,
}

impl ScriptedFtpClient {
    /// Creates a client that will connect from `src_ip` to `dst` and run
    /// `script`.
    pub fn new(src_ip: Ipv4Addr, dst: (Ipv4Addr, u16), script: Vec<Action>) -> Self {
        ScriptedFtpClient {
            src_ip,
            dst,
            script,
            pc: 0,
            waiting: Waiting::Start,
            control: None,
            codec: LineCodec::new(),
            parser: ReplyBuf::new(),
            replies: Vec::new(),
            data_conn: None,
            data_buf: Vec::new(),
            downloads: Vec::new(),
            pasv_addr: None,
            cert: None,
            connect_failed: false,
            finished: false,
            pending_upload: None,
        }
    }

    /// All control-channel replies received, in order (banner first).
    pub fn replies(&self) -> impl DoubleEndedIterator<Item = ReplyRef<'_>> + ExactSizeIterator {
        self.replies.iter().map(|(code, text)| ReplyRef::new(*code, text))
    }

    /// Reply codes in order — convenient for assertions.
    pub fn codes(&self) -> Vec<u16> {
        self.replies.iter().map(|(code, _)| code.value()).collect()
    }

    /// Collected `(command, bytes)` pairs from `TransferGet` steps.
    pub fn downloads(&self) -> &[(String, Vec<u8>)] {
        &self.downloads
    }

    /// Certificate captured by a `TlsHandshake` step.
    pub fn certificate(&self) -> Option<&SimCertificate> {
        self.cert.as_ref()
    }

    /// The host-port tuple from the last `227` reply.
    pub fn pasv_addr(&self) -> Option<HostPort> {
        self.pasv_addr
    }

    /// True once the script ran to completion (or aborted on error).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// True if the initial control connect failed.
    pub fn connect_failed(&self) -> bool {
        self.connect_failed
    }

    fn send_line(&mut self, ctx: &mut Ctx<'_>, line: &str) {
        if let Some(c) = self.control {
            ctx.send(c, format!("{line}\r\n").as_bytes());
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        self.finished = true;
        self.waiting = Waiting::Done;
        if let Some(c) = self.control.take() {
            ctx.close(c);
        }
        if let Some(d) = self.data_conn.take() {
            ctx.close(d);
        }
    }

    /// Starts executing the action at `self.pc`.
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.pc >= self.script.len() {
            self.finish(ctx);
            return;
        }
        let action = self.script[self.pc].clone();
        match action {
            Action::Send(line) => {
                self.send_line(ctx, &line);
                self.waiting = Waiting::Reply;
            }
            Action::OpenPasv => {
                self.send_line(ctx, "PASV");
                self.waiting = Waiting::PasvReply;
            }
            Action::TransferGet(cmd) => {
                self.data_buf.clear();
                self.send_line(ctx, &cmd);
                self.waiting = Waiting::Transfer { got_reply: false, data_closed: false };
            }
            Action::TransferPut(cmd, bytes) => {
                self.pending_upload = Some(bytes);
                self.send_line(ctx, &cmd);
                self.waiting = Waiting::Transfer { got_reply: false, data_closed: false };
                // Push the payload once the server acknowledges with 150;
                // handled in on_reply.
            }
            Action::TlsHandshake => {
                self.send_line(ctx, "AUTH TLS");
                self.waiting = Waiting::TlsAuthReply;
            }
            Action::Quit => {
                self.send_line(ctx, "QUIT");
                self.waiting = Waiting::Reply;
            }
        }
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        self.pc += 1;
        self.step(ctx);
    }

    fn maybe_finish_transfer(&mut self, ctx: &mut Ctx<'_>) {
        if let Waiting::Transfer { got_reply: true, data_closed: true } = self.waiting {
            let cmd = match &self.script[self.pc] {
                Action::TransferGet(c) => c.clone(),
                Action::TransferPut(c, _) => c.clone(),
                _ => String::new(),
            };
            let bytes = std::mem::take(&mut self.data_buf);
            if matches!(self.script[self.pc], Action::TransferGet(_)) {
                self.downloads.push((cmd, bytes));
            }
            self.data_conn = None;
            self.advance(ctx);
        }
    }

    /// Advances the script on the reply just recorded, whose code is
    /// `code`.
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, code: ReplyCode) {
        let preliminary = code.is_positive_preliminary();
        let code = code.value();
        match self.waiting {
            Waiting::Banner => {
                self.step(ctx);
            }
            Waiting::Reply => {
                if self.pc < self.script.len() && self.script[self.pc] == Action::Quit {
                    self.finish(ctx);
                } else {
                    self.advance(ctx);
                }
            }
            Waiting::PasvReply => {
                if code == 227 {
                    let text = self.replies().next_back().map(ReplyRef::text).unwrap_or_default();
                    match HostPort::parse_pasv_reply(text) {
                        Ok(hp) => {
                            self.pasv_addr = Some(hp);
                            // Connect to the *real* server address; the
                            // advertised one may be a NAT-leaked private
                            // address (which is itself a measurement).
                            self.waiting = Waiting::DataConn;
                            ctx.connect(self.src_ip, self.dst.0, hp.port(), 2);
                        }
                        Err(_) => self.finish(ctx),
                    }
                } else {
                    // PASV refused; abort the script.
                    self.finish(ctx);
                }
            }
            Waiting::Transfer { got_reply, data_closed } => {
                if preliminary {
                    // 150: for uploads, now push the payload. We close
                    // our own end, so no on_close will arrive — mark the
                    // data side finished here.
                    if let Some(bytes) = self.pending_upload.take() {
                        if let Some(d) = self.data_conn.take() {
                            ctx.send(d, &bytes);
                            ctx.close(d);
                        }
                        self.waiting = Waiting::Transfer { got_reply, data_closed: true };
                        self.maybe_finish_transfer(ctx);
                    }
                } else if code >= 400 && !got_reply {
                    // Hard failure: no data will come.
                    self.pending_upload = None;
                    if let Some(d) = self.data_conn.take() {
                        ctx.close(d);
                    }
                    self.data_buf.clear();
                    self.advance(ctx);
                } else {
                    self.waiting = Waiting::Transfer { got_reply: true, data_closed };
                    self.maybe_finish_transfer(ctx);
                }
            }
            Waiting::TlsAuthReply => {
                if code == 234 {
                    if let Some(c) = self.control {
                        ctx.send(c, format!("{}\r\n", simtls::CLIENT_HELLO).as_bytes());
                    }
                    self.waiting = Waiting::TlsCert;
                } else {
                    self.advance(ctx);
                }
            }
            Waiting::Start | Waiting::DataConn | Waiting::TlsCert | Waiting::Done => {}
        }
    }
}

impl Endpoint for ScriptedFtpClient {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if matches!(self.waiting, Waiting::Start) {
            ctx.connect(self.src_ip, self.dst.0, self.dst.1, 1);
            self.waiting = Waiting::Banner;
        }
    }

    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<ConnId, ConnectError>) {
        match (token, result) {
            (1, Ok(conn)) => {
                self.control = Some(conn);
                // Banner arrives as data; stay in Waiting::Banner.
            }
            (1, Err(_)) => {
                self.connect_failed = true;
                self.finished = true;
            }
            (2, Ok(conn)) => {
                self.data_conn = Some(conn);
                if matches!(self.waiting, Waiting::DataConn) {
                    self.advance(ctx);
                }
            }
            (2, Err(_)) => {
                // Data channel failed; abort.
                self.finish(ctx);
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        if Some(conn) == self.data_conn {
            self.data_buf.extend_from_slice(data);
            return;
        }
        if Some(conn) != self.control {
            return;
        }
        self.codec.extend(data);
        while let Ok(Some(line)) = self.codec.next_line_str() {
            // Simulated TLS certificate line.
            if line.starts_with('\u{1}') {
                if matches!(self.waiting, Waiting::TlsCert) {
                    self.cert = SimCertificate::parse_server_hello(line);
                    self.advance(ctx);
                }
                continue;
            }
            match self.parser.push_line(line) {
                Ok(Some(reply)) => {
                    let code = reply.code();
                    self.replies.push((code, reply.full_text().to_owned()));
                    self.on_reply(ctx, code);
                }
                Ok(None) => {}
                Err(_) => {
                    self.finish(ctx);
                    return;
                }
            }
            if self.finished {
                return;
            }
        }
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if Some(conn) == self.data_conn {
            if let Waiting::Transfer { got_reply, .. } = self.waiting {
                self.waiting = Waiting::Transfer { got_reply, data_closed: true };
                self.maybe_finish_transfer(ctx);
            } else {
                self.data_conn = None;
            }
            return;
        }
        if Some(conn) == self.control {
            self.control = None;
            self.finished = true;
            self.waiting = Waiting::Done;
        }
    }
}
