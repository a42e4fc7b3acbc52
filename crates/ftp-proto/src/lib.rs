//! FTP wire-protocol types and parsers.
//!
//! This crate implements the protocol layer needed by every other part of
//! the *FTP: The Forgotten Cloud* reproduction: client commands, server
//! replies (including multiline replies), `PORT`/`PASV`/`EPRT`/`EPSV`
//! host-port arguments, directory-listing parsers for the formats found in
//! the wild (UNIX `ls -l`, MS-DOS/IIS, EPLF, and `MLSD` fact lines),
//! server banners with software/version extraction, and a `robots.txt`
//! parser following Google's specification (as the paper's enumerator
//! did).
//!
//! Everything here is pure and deterministic: no I/O, no clocks. The
//! protocol layer is shared between the simulated servers (`ftpd`), the
//! enumerator, and the honeypots, so the reproduction exercises a single
//! implementation of FTP framing on both sides of every connection — just
//! as a real-world deployment exercises a real TCP stack on both sides.
//!
//! # Example
//!
//! ```
//! use ftp_proto::{Command, ReplyBuf};
//!
//! let cmd: Command = "RETR robots.txt".parse()?;
//! assert_eq!(cmd, Command::Retr("robots.txt".into()));
//!
//! let mut replies = ReplyBuf::new();
//! let reply = replies.push_line("220 ProFTPD 1.3.5 Server ready.")?.expect("single-line reply");
//! assert!(reply.code().is_positive_completion());
//! # Ok::<(), ftp_proto::ProtoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banner;
pub mod codec;
pub mod command;
pub mod decimal;
pub mod error;
pub mod hostport;
pub mod listing;
pub mod path;
pub mod reply;
pub mod robots;

pub use banner::{Banner, ServerSoftware, SoftwareFamily};
pub use codec::{lossy_append, LineCodec};
pub use command::Command;
pub use error::ProtoError;
pub use hostport::HostPort;
pub use listing::{ListingFormat, Permissions};
pub use path::FtpPath;
pub use reply::{ReplyBuf, ReplyCode, ReplyRef};
pub use robots::Robots;
