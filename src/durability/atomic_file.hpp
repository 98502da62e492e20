#pragma once

// Durable file writes (docs/DURABILITY.md, "Atomic state files"): the
// one write loop every durability writer uses, and crash-safe
// whole-file replacement.
//
// A plain fopen/fwrite of a state file (the suspect-ledger JSON, a
// compacted journal) can be interrupted half-written, leaving a reader
// with truncated garbage where the previous good copy used to be.  The
// standard fix: write the new contents to `path + ".tmp"`, fsync,
// rename over `path` (atomic on POSIX), fsync the directory.  A crash
// at any point leaves either the old complete file or the new complete
// file — never a mix — and a stray `.tmp` from an interrupted write is
// simply ignored by readers.

#include <sys/uio.h>

#include <span>
#include <string>
#include <string_view>

namespace prodsort {

/// Writes every byte of `parts` to `fd` with writev(2), retrying on
/// EINTR and continuing after short counts; `parts` is consumed (its
/// entries are advanced past the bytes written).  Throws
/// std::runtime_error naming `path` on an I/O error.
void write_fully(int fd, std::span<iovec> parts, const std::string& path);
void write_fully(int fd, std::string_view bytes, const std::string& path);

/// Atomically replaces `path` with `contents`.  Throws
/// std::runtime_error naming the path on any I/O failure (the original
/// file, if it existed, is untouched on failure).
void write_file_atomic(const std::string& path, std::string_view contents);

}  // namespace prodsort
