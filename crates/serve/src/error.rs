//! The typed error taxonomy of the serve layer.
//!
//! Every failure the server or its one-request client
//! ([`crate::http::http_call`]) can hit maps onto one [`ServeError`]
//! variant; HTTP-protocol violations carry a structured
//! [`crate::http::HttpError`] that knows its own status code,
//! so the connection handler can always answer with the right 4xx
//! instead of dropping the connection or (worse) panicking.

use crate::http::HttpError;
use emd_query::{DurableError, QueryError};

/// Everything that can go wrong starting, running, or driving a server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or using the listening socket failed.
    Io(std::io::Error),
    /// The configured listen address did not parse/resolve.
    BadAddr(String),
    /// A malformed HTTP request (maps to a 4xx response).
    Http(HttpError),
    /// The query engine rejected or failed a request.
    Query(QueryError),
    /// A request body was structurally valid JSON but not a valid query
    /// document; the payload is a human-readable diagnostic.
    BadRequest(String),
    /// A durable write failed on disk (WAL append, fsync, or compaction
    /// IO); never a [`DurableError::Query`]. This is the server's disk failing, never the
    /// client's request — it maps to a 500, and after a failed sync the
    /// write's durability is indeterminate until the index is reopened.
    Durable(DurableError),
    /// A worker or accept thread ended abnormally (join failure).
    WorkerLost,
    /// [`crate::http::http_call`] got a response it could not interpret.
    BadResponse(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::BadAddr(addr) => write!(f, "bad address `{addr}`"),
            ServeError::Http(e) => write!(f, "http error: {e}"),
            ServeError::Query(e) => write!(f, "query error: {e}"),
            ServeError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServeError::Durable(e) => write!(f, "durable store failure: {e}"),
            ServeError::WorkerLost => write!(f, "a server thread ended abnormally"),
            ServeError::BadResponse(detail) => write!(f, "bad response: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Query(e) => Some(e),
            ServeError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<HttpError> for ServeError {
    fn from(e: HttpError) -> Self {
        ServeError::Http(e)
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

/// Split a durable-index failure along the client/server fault line:
/// engine rejections keep their query typing (the request was bad),
/// disk failures become [`ServeError::Durable`] (the disk was bad).
impl From<DurableError> for ServeError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Query(query) => ServeError::Query(query),
            disk => ServeError::Durable(disk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed() {
        assert!(ServeError::BadAddr("nope".into())
            .to_string()
            .contains("nope"));
        let io: ServeError = std::io::Error::other("x").into();
        assert!(io.to_string().starts_with("i/o error"));
    }
}
