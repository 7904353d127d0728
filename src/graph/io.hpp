// Graph file I/O.
//
// Text format is SNAP's edge-list convention ('#'-prefixed comment lines,
// then one "u<whitespace>v" pair per line), so the paper's actual
// evaluation inputs — downloaded from https://snap.stanford.edu/data/ —
// can be fed to every bench via --input without any conversion. The binary
// format is a fast round-trip cache. Temporal lists add a third column t.
//
// Text grammar (both loaders; K = 2 for "u v", K = 3 for "u v t"):
//   * Lines end at '\n' only, whatever their length. A blank is ' ', '\t',
//     '\r', '\v' or '\f', so CRLF files and tab-separated files read alike.
//   * A record line is: blanks, then K unsigned decimal numbers (digits
//     only, no sign), each after the first preceded by at least one blank.
//     Whatever follows the K-th number's digits is ignored: extra columns,
//     a trailing "# ..." comment.
//   * Every other line is skipped: '#' comments, blank lines, lines with
//     fewer than K numbers, and lines whose leading tokens are not
//     unsigned decimals (a signed "-1" or "+1" included).
//   * A record line with a value above 2^32 - 2 (4294967294) throws
//     pcq::IoError naming the byte offset of the first such line; nothing
//     is wrapped or truncated. The limit keeps num_nodes() and
//     num_frames() (max + 1) within 32 bits.
// The loaders parse with `num_threads` threads (<= 0: hardware threads),
// one byte range each, and return the records in file order, identical at
// every thread count. Open and read failures throw pcq::IoError, and so
// does a path that is not a regular file.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace pcq::graph {

/// Reads a SNAP text edge list ("u v" records, grammar above).
EdgeList load_snap_text(const std::string& path, int num_threads = 0);

/// Writes SNAP text with a generator comment header.
void save_snap_text(const EdgeList& list, const std::string& path);

/// Reads "u v t" temporal triplets (SNAP temporal convention).
TemporalEdgeList load_temporal_text(const std::string& path,
                                    int num_threads = 0);

void save_temporal_text(const TemporalEdgeList& list, const std::string& path);

/// Binary round-trip format: magic, count, raw little-endian pairs.
EdgeList load_binary(const std::string& path);
void save_binary(const EdgeList& list, const std::string& path);

/// Binary temporal round-trip: magic, count, raw (u, v, t) triplets.
TemporalEdgeList load_temporal_binary(const std::string& path);
void save_temporal_binary(const TemporalEdgeList& list,
                          const std::string& path);

}  // namespace pcq::graph
