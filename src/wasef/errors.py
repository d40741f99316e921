"""Exception types shared across the package."""


class WasefError(Exception):
    """Base class for every error raised by this package."""


class MalformedUrl(WasefError):
    """A URL could not be parsed or lacks a scheme/host."""

    def __init__(self, url):
        super().__init__(f"malformed URL: {url!r}")
        self.url = url


class NoRootDocument(WasefError):
    """No HTML root document could be identified for a page."""


class BodyDecodeError(WasefError):
    """A response body could not be decoded from its declared encoding."""

    def __init__(self, entry_index, reason=""):
        super().__init__(f"entry {entry_index}: undecodable body ({reason})")
        self.entry_index = entry_index


class StorageError(WasefError):
    """An archive read or write failed at the I/O level."""


class CorruptArchive(WasefError):
    """A stored page is structurally broken (missing files, bad manifest)."""


class ChecksumMismatch(WasefError):
    """A stored body does not match the digest recorded in the manifest."""


class EmptyDocument(WasefError):
    """The root HTML body is empty and cannot be parsed."""


class UnknownTransform(WasefError):
    """A transform name is not present in the registry."""


class TransformFailed(WasefError):
    """A transform raised while rewriting a page; carries the cause."""


class BindError(WasefError):
    """The replay server could not bind its address."""


class ConfigError(WasefError):
    """An experiment configuration is invalid; names the offending field."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class EmptyInput(WasefError):
    """A statistic was requested over an empty value list."""


class NotFinite(WasefError):
    """A metric delta, or a value or statistic of a summary, is not a finite float."""
