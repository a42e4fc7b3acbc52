//! The honeypot sensor: full control-channel logging around a real
//! server engine.

use ftp_proto::LineCodec;
use ftpd::FtpServerEngine;
use netsim::{ConnId, ConnectError, Ctx, Endpoint};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// One logged control-channel line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEvent {
    /// When the line arrived.
    pub at_micros: u64,
    /// Source address.
    pub peer: Ipv4Addr,
    /// The raw line (command or handshake garbage).
    pub line: String,
}

/// Shared honeypot log: connection events plus command lines.
#[derive(Debug, Default)]
pub struct SensorLogInner {
    /// Every control-channel line, in arrival order.
    pub lines: Vec<LogEvent>,
    /// Every peer that completed a TCP connection, in order of first
    /// contact.
    pub connections: Vec<(u64, Ipv4Addr)>,
}

/// Handle to a sensor's log.
pub type SensorLog = Rc<RefCell<SensorLogInner>>;

/// Wraps an [`FtpServerEngine`], teeing observations into a [`SensorLog`]
/// while delegating all behavior to the engine — the honeypot *is* a
/// fully functional anonymous, writable FTP server, as the paper's were.
pub struct Sensor {
    engine: FtpServerEngine,
    log: SensorLog,
    control_conns: HashMap<ConnId, (Ipv4Addr, LineCodec)>,
}

impl std::fmt::Debug for Sensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sensor").field("conns", &self.control_conns.len()).finish()
    }
}

impl Sensor {
    /// Wraps `engine`; returns the sensor and its log handle.
    pub fn new(engine: FtpServerEngine) -> (Self, SensorLog) {
        let log: SensorLog = Rc::new(RefCell::new(SensorLogInner::default()));
        (Sensor { engine, log: log.clone(), control_conns: HashMap::new() }, log)
    }
}

impl Endpoint for Sensor {
    fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {
        if local_port == 21 {
            let peer = ctx.peer_of(conn).map(|(ip, _)| ip).unwrap_or(Ipv4Addr::UNSPECIFIED);
            self.control_conns.insert(conn, (peer, LineCodec::new()));
            self.log.borrow_mut().connections.push((ctx.now().as_micros(), peer));
        }
        self.engine.on_inbound(ctx, conn, local_port);
    }

    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<ConnId, ConnectError>) {
        self.engine.on_outbound(ctx, token, result);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        if let Some((peer, codec)) = self.control_conns.get_mut(&conn) {
            codec.extend(data);
            let at_micros = ctx.now().as_micros();
            let mut log = self.log.borrow_mut();
            while let Ok(Some(line)) = codec.next_line_str() {
                log.lines.push(LogEvent { at_micros, peer: *peer, line: line.to_owned() });
            }
        }
        self.engine.on_data(ctx, conn, data);
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.control_conns.remove(&conn);
        self.engine.on_close(ctx, conn);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.engine.on_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpd::profile::{AnonPolicy, ServerProfile};
    use ftpd::{Action, ScriptedFtpClient};
    use netsim::{SimDuration, Simulator};
    use simvfs::Vfs;

    #[test]
    fn sensor_logs_commands_and_connection() {
        let hp_ip = Ipv4Addr::new(141, 212, 0, 1);
        let attacker_ip = Ipv4Addr::new(59, 60, 0, 1);
        let mut sim = Simulator::new(1);
        let profile = ServerProfile::new("FTP ready")
            .with_anonymous(AnonPolicy::Allowed)
            .with_writable("/");
        let engine = FtpServerEngine::new(hp_ip, profile, Vfs::new());
        let (sensor, log) = Sensor::new(engine);
        let sid = sim.register_endpoint(Box::new(sensor));
        sim.bind(hp_ip, 21, sid);
        let client = ScriptedFtpClient::new(
            attacker_ip,
            (hp_ip, 21),
            vec![
                Action::Send("USER anonymous".into()),
                Action::Send("PASS probe@evil".into()),
                Action::Send("CWD /www".into()),
                Action::Quit,
            ],
        );
        let cid = sim.register_endpoint(Box::new(client));
        sim.schedule_timer(cid, SimDuration::ZERO, 0);
        sim.run();
        let log = log.borrow();
        assert_eq!(log.connections.len(), 1);
        assert_eq!(log.connections[0].1, attacker_ip);
        let lines: Vec<&str> = log.lines.iter().map(|e| e.line.as_str()).collect();
        assert!(lines.contains(&"USER anonymous"), "{lines:?}");
        assert!(lines.contains(&"PASS probe@evil"), "{lines:?}");
        assert!(lines.contains(&"CWD /www"), "{lines:?}");
        assert!(log.lines.iter().all(|e| e.peer == attacker_ip));
        // Timestamps are monotone.
        assert!(log.lines.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
    }

    #[test]
    fn sensor_still_serves_ftp() {
        // The wrapped engine must behave identically: upload then verify.
        let hp_ip = Ipv4Addr::new(141, 212, 0, 1);
        let mut sim = Simulator::new(2);
        let profile = ServerProfile::new("FTP ready")
            .with_anonymous(AnonPolicy::Allowed)
            .with_writable("/");
        let engine = FtpServerEngine::new(hp_ip, profile, Vfs::new());
        let (sensor, log) = Sensor::new(engine);
        let sid = sim.register_endpoint(Box::new(sensor));
        sim.bind(hp_ip, 21, sid);
        let client = ScriptedFtpClient::new(
            Ipv4Addr::new(2, 2, 2, 2),
            (hp_ip, 21),
            vec![
                Action::Send("USER anonymous".into()),
                Action::Send("PASS x@y".into()),
                Action::OpenPasv,
                Action::TransferPut("STOR hello.world.txt".into(), b"test".to_vec()),
                Action::Quit,
            ],
        );
        let cid = sim.register_endpoint(Box::new(client));
        sim.schedule_timer(cid, SimDuration::ZERO, 0);
        sim.run();
        let lines: Vec<String> =
            log.borrow().lines.iter().map(|e| e.line.clone()).collect();
        assert!(lines.iter().any(|l| l.starts_with("STOR hello.world.txt")), "{lines:?}");
    }
}
