//! Error type shared across the substrate.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by schema construction, algebra operators, and
/// consistency checking.
///
/// The variants carry enough context to be actionable without holding
/// references into the structures that produced them, so they can cross
/// crate boundaries freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An attribute name was referenced but does not exist in the relation
    /// or scheme it was looked up in.
    UnknownAttribute {
        /// The attribute that could not be resolved.
        attribute: String,
        /// The relation or scheme it was looked up in.
        context: String,
    },
    /// A relation-scheme name was referenced but is not part of the schema.
    UnknownScheme(String),
    /// Two attribute sets were required to be compatible (same arity,
    /// pairwise-identical domains) but are not.
    IncompatibleAttributes {
        /// Human-readable description of the two sides.
        detail: String,
    },
    /// Attribute names must be globally unique within a schema (the paper's
    /// standing assumption in Definition 4.1).
    DuplicateAttribute(String),
    /// A relation-scheme name occurs twice in a schema.
    DuplicateScheme(String),
    /// A tuple's arity or a value's domain does not match the relation
    /// header it was inserted into.
    TupleMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A key (primary or candidate) refers to attributes outside its scheme,
    /// or is empty.
    MalformedKey {
        /// The scheme whose key is malformed.
        scheme: String,
        /// Description of the problem.
        detail: String,
    },
    /// A dependency or constraint refers to attributes/schemes that make it
    /// ill-formed with respect to the schema.
    MalformedConstraint {
        /// Description of the problem.
        detail: String,
    },
    /// An operation needed a primary key that the scheme does not declare.
    MissingPrimaryKey(String),
    /// A precondition of a procedure (e.g. `Merge`'s pairwise-compatible
    /// primary keys, or `Remove`'s removability conditions) was violated.
    PreconditionViolated {
        /// Which procedure rejected its input.
        procedure: &'static str,
        /// Why.
        detail: String,
    },
    /// A database state mentions a relation not in the schema, or misses one.
    StateMismatch {
        /// Description of the problem.
        detail: String,
    },
    /// A dependency or null constraint would be violated by a data change.
    /// Raised by the engine's DML path; carried here so engine errors fold
    /// into the workspace-wide `Result` without a second error hierarchy.
    ConstraintViolation(String),
    /// A fault deliberately fired by the engine's fault-injection layer.
    /// Never raised in production configurations; carried here so injected
    /// faults travel the same typed-error paths real failures do.
    Injected {
        /// The injection site that fired (see `engine::fault::site`).
        site: String,
    },
    /// A panic was caught (`catch_unwind`) inside the executor or the
    /// batch machinery and converted into a typed error after the undo
    /// log was fully unwound. The process survives; only the offending
    /// query or batch fails.
    ExecutionPanic {
        /// The captured panic message.
        context: String,
    },
    /// The durability layer failed: a write-ahead-log append or snapshot
    /// could not be made durable, a data directory is missing or already
    /// initialized, or a persisted record failed to decode during
    /// recovery.
    ///
    /// The durability layer lives in the engine crate; the variant lives
    /// here so storage failures fold into the workspace-wide `Result`
    /// (the same arrangement as `Injected`).
    Durability {
        /// What failed, including the file or record involved.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { attribute, context } => {
                write!(f, "unknown attribute `{attribute}` in `{context}`")
            }
            Error::UnknownScheme(name) => write!(f, "unknown relation-scheme `{name}`"),
            Error::IncompatibleAttributes { detail } => {
                write!(f, "incompatible attribute sets: {detail}")
            }
            Error::DuplicateAttribute(name) => {
                write!(f, "attribute name `{name}` is not globally unique")
            }
            Error::DuplicateScheme(name) => {
                write!(f, "relation-scheme name `{name}` declared twice")
            }
            Error::TupleMismatch { detail } => write!(f, "tuple mismatch: {detail}"),
            Error::MalformedKey { scheme, detail } => {
                write!(f, "malformed key on `{scheme}`: {detail}")
            }
            Error::MalformedConstraint { detail } => {
                write!(f, "malformed dependency or constraint: {detail}")
            }
            Error::MissingPrimaryKey(scheme) => {
                write!(f, "relation-scheme `{scheme}` has no primary key")
            }
            Error::PreconditionViolated { procedure, detail } => {
                write!(f, "{procedure}: precondition violated: {detail}")
            }
            Error::StateMismatch { detail } => write!(f, "database state mismatch: {detail}"),
            Error::ConstraintViolation(detail) => write!(f, "constraint violation: {detail}"),
            Error::Injected { site } => write!(f, "injected fault at site `{site}`"),
            Error::ExecutionPanic { context } => write!(f, "execution panicked: {context}"),
            Error::Durability { detail } => write!(f, "durability failure: {detail}"),
        }
    }
}

impl std::error::Error for Error {}
