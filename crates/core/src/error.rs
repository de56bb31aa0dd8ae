//! Error and status codes for the NetSolve system.
//!
//! The original NetSolve C library reported status through integer codes
//! (`NetSolveOK`, `NetSolveProblemNotFound`, ...). We mirror that catalogue as
//! a rich Rust enum so every layer (client, agent, server, transport) speaks
//! the same error vocabulary, and keep a stable numeric code for wire
//! transmission.

use std::fmt;

use crate::admission::parse_retry_after_ms;

/// What an error means: the one reading the client's retry loop, the
/// agent's fault record and the simulator share. In the paper a failure
/// was a crash; since admission a server also refuses work on purpose,
/// and that refusal is load, not a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The path to the server failed: refused, reset, corrupt or timed
    /// out. The client retries and keeps the candidate; the agent counts
    /// the report toward mark-down.
    Link,
    /// The server failed the request itself. The client retries
    /// elsewhere and spends the candidate; the agent counts the report
    /// toward mark-down.
    Fault,
    /// The server, or the pool, refused work on purpose. The client
    /// retries no sooner than `retry_after_ms` (0 when the error carries
    /// no hint) and keeps the candidate; the agent never marks the server
    /// down for it, but ranks it lower until the hint passes.
    Load {
        /// The `retry_after_ms=N` hint in the error's detail, or 0.
        retry_after_ms: u64,
    },
    /// The request itself is wrong: retrying anywhere is futile.
    Request,
}

/// Every failure the NetSolve system can report.
///
/// The numeric codes (see [`NetSolveError::code`]) are part of the wire
/// protocol: a server replies to a failed request with the code, and the
/// client reconstructs the enum with [`NetSolveError::from_code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetSolveError {
    /// The requested problem name is not known to the agent or server.
    ProblemNotFound(String),
    /// No server currently advertises the requested problem.
    NoServerAvailable(String),
    /// A server was selected but could not be reached.
    ServerUnreachable(String),
    /// The server accepted the request but failed while computing.
    ExecutionFailed(String),
    /// Input objects do not match the problem's declared signature.
    BadArguments(String),
    /// Malformed bytes on the wire (framing, marshaling, version).
    Protocol(String),
    /// Underlying transport error (socket, channel).
    Transport(String),
    /// The agent rejected or could not parse a registration.
    Registration(String),
    /// A numerical routine failed (singular matrix, no convergence, ...).
    Numerical(String),
    /// Problem description language parse/validation failure.
    Description(String),
    /// An operation did not finish within its deadline.
    Timeout(String),
    /// Resource limits exceeded (queue full, payload too large).
    Resource(String),
    /// Internal invariant violation; indicates a bug.
    Internal(String),
    /// A frame arrived damaged (CRC mismatch). Unlike [`Protocol`], which
    /// means the peer speaks the wrong dialect, corruption is transient
    /// (a bad link, an injected fault) and the request is safe to retry.
    ///
    /// [`Protocol`]: NetSolveError::Protocol
    Corrupt(String),
}

impl NetSolveError {
    /// Stable numeric code used on the wire.
    pub fn code(&self) -> u32 {
        match self {
            NetSolveError::ProblemNotFound(_) => 1,
            NetSolveError::NoServerAvailable(_) => 2,
            NetSolveError::ServerUnreachable(_) => 3,
            NetSolveError::ExecutionFailed(_) => 4,
            NetSolveError::BadArguments(_) => 5,
            NetSolveError::Protocol(_) => 6,
            NetSolveError::Transport(_) => 7,
            NetSolveError::Registration(_) => 8,
            NetSolveError::Numerical(_) => 9,
            NetSolveError::Description(_) => 10,
            NetSolveError::Timeout(_) => 11,
            NetSolveError::Resource(_) => 13,
            NetSolveError::Internal(_) => 14,
            NetSolveError::Corrupt(_) => 15,
        }
    }

    /// Reconstruct an error from its wire code and detail message.
    ///
    /// Unknown codes map to [`NetSolveError::Internal`] so that a newer peer
    /// never crashes an older one. Code 12 (a retired `InvalidHandle`) is
    /// one of them; it is never reused.
    pub fn from_code(code: u32, detail: String) -> Self {
        match code {
            1 => NetSolveError::ProblemNotFound(detail),
            2 => NetSolveError::NoServerAvailable(detail),
            3 => NetSolveError::ServerUnreachable(detail),
            4 => NetSolveError::ExecutionFailed(detail),
            5 => NetSolveError::BadArguments(detail),
            6 => NetSolveError::Protocol(detail),
            7 => NetSolveError::Transport(detail),
            8 => NetSolveError::Registration(detail),
            9 => NetSolveError::Numerical(detail),
            10 => NetSolveError::Description(detail),
            11 => NetSolveError::Timeout(detail),
            13 => NetSolveError::Resource(detail),
            15 => NetSolveError::Corrupt(detail),
            _ => NetSolveError::Internal(detail),
        }
    }

    /// Human-oriented detail string carried by every variant.
    pub fn detail(&self) -> &str {
        match self {
            NetSolveError::ProblemNotFound(s)
            | NetSolveError::NoServerAvailable(s)
            | NetSolveError::ServerUnreachable(s)
            | NetSolveError::ExecutionFailed(s)
            | NetSolveError::BadArguments(s)
            | NetSolveError::Protocol(s)
            | NetSolveError::Transport(s)
            | NetSolveError::Registration(s)
            | NetSolveError::Numerical(s)
            | NetSolveError::Description(s)
            | NetSolveError::Timeout(s)
            | NetSolveError::Resource(s)
            | NetSolveError::Internal(s)
            | NetSolveError::Corrupt(s) => s,
        }
    }

    /// What this error means ([`ErrorClass`]). Every variant names its
    /// class, so a new variant must pick one. `NoServerAvailable` is load:
    /// unlike an unknown problem it is a transient pool condition —
    /// down-cooldowns expire, heartbeats re-admit recovered servers, and
    /// new servers register.
    pub fn class(&self) -> ErrorClass {
        use {ErrorClass::*, NetSolveError::*};
        match self {
            ServerUnreachable(_) | Transport(_) | Timeout(_) | Corrupt(_) => Link,
            ExecutionFailed(_) => Fault,
            Resource(s) | NoServerAvailable(s) => Load { retry_after_ms: parse_retry_after_ms(s) },
            ProblemNotFound(_) | BadArguments(_) | Protocol(_) | Registration(_) | Numerical(_)
            | Description(_) | Internal(_) => Request,
        }
    }

    /// Short machine-friendly name of the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            NetSolveError::ProblemNotFound(_) => "problem-not-found",
            NetSolveError::NoServerAvailable(_) => "no-server-available",
            NetSolveError::ServerUnreachable(_) => "server-unreachable",
            NetSolveError::ExecutionFailed(_) => "execution-failed",
            NetSolveError::BadArguments(_) => "bad-arguments",
            NetSolveError::Protocol(_) => "protocol",
            NetSolveError::Transport(_) => "transport",
            NetSolveError::Registration(_) => "registration",
            NetSolveError::Numerical(_) => "numerical",
            NetSolveError::Description(_) => "description",
            NetSolveError::Timeout(_) => "timeout",
            NetSolveError::Resource(_) => "resource",
            NetSolveError::Internal(_) => "internal",
            NetSolveError::Corrupt(_) => "corrupt",
        }
    }
}

impl fmt::Display for NetSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

impl std::error::Error for NetSolveError {}

impl From<std::io::Error> for NetSolveError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // A socket read deadline expiring surfaces as WouldBlock on
            // Unix and TimedOut on Windows; both are our Timeout.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetSolveError::Timeout(e.to_string())
            }
            _ => NetSolveError::Transport(e.to_string()),
        }
    }
}

/// Convenience alias used across every crate in the workspace.
pub type Result<T> = std::result::Result<T, NetSolveError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<NetSolveError> {
        vec![
            NetSolveError::ProblemNotFound("p".into()),
            NetSolveError::NoServerAvailable("p".into()),
            NetSolveError::ServerUnreachable("h".into()),
            NetSolveError::ExecutionFailed("x".into()),
            NetSolveError::BadArguments("a".into()),
            NetSolveError::Protocol("m".into()),
            NetSolveError::Transport("t".into()),
            NetSolveError::Registration("r".into()),
            NetSolveError::Numerical("n".into()),
            NetSolveError::Description("d".into()),
            NetSolveError::Timeout("t".into()),
            NetSolveError::Resource("r".into()),
            NetSolveError::Internal("i".into()),
            NetSolveError::Corrupt("c".into()),
        ]
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<u32> = all_variants().iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all_variants().len());
    }

    #[test]
    fn code_roundtrip_preserves_variant() {
        for e in all_variants() {
            let back = NetSolveError::from_code(e.code(), e.detail().to_string());
            assert_eq!(e, back);
        }
    }

    #[test]
    fn unknown_code_maps_to_internal() {
        let e = NetSolveError::from_code(9999, "future".into());
        assert_eq!(e, NetSolveError::Internal("future".into()));
    }

    /// The (code, class) table is pinned in `tests/wire_format.rs`
    /// against PROTOCOL.md, one row per variant; here, that the table
    /// still covers every variant, and that a load error's hint is
    /// parsed from its detail and is 0 without one.
    #[test]
    fn every_variant_is_pinned_and_load_carries_its_hint() {
        assert_eq!(all_variants().len(), 14, "pin the new variant in error_codes_are_pinned");
        let load = |ms| ErrorClass::Load { retry_after_ms: ms };
        let busy = NetSolveError::Resource("queue full: retry_after_ms=50".into());
        assert_eq!(busy.class(), load(50));
        assert_eq!(NetSolveError::NoServerAvailable("none".into()).class(), load(0));
    }

    #[test]
    fn display_contains_kind_and_detail() {
        let e = NetSolveError::Numerical("singular matrix".into());
        let s = e.to_string();
        assert!(s.contains("numerical"));
        assert!(s.contains("singular matrix"));
    }
}
