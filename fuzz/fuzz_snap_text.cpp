// Fuzzes the chunked SNAP text loaders: arbitrary bytes are written to a
// file and loaded with load_snap_text and load_temporal_text at thread
// counts 1, 3 and 8. Every load must agree with the others and with a
// sequential reference parser of the io.hpp grammar, kept in this file: the
// same records in the same order, or the same pcq::IoError about the same
// first out-of-range line. Any disagreement, crash or sanitizer report is a
// finding.
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "fuzz_util.hpp"
#include "graph/io.hpp"
#include "util/io_error.hpp"

namespace {

using Record = std::array<std::uint32_t, 3>;

/// Records in file order, or the byte offset of the first out-of-range
/// record line (then `records` is meaningless).
struct Parse {
  std::vector<Record> records;
  std::optional<std::size_t> fail_at;
};

bool is_blank(int c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
bool is_digit(int c) { return c >= '0' && c <= '9'; }

/// Reference parser: one byte at a time through a per-line state machine,
/// independent of the loader's slab-and-pointer parser.
Parse reference_parse(const std::uint8_t* data, std::size_t size, int k) {
  constexpr std::uint64_t kMax = 4294967294;
  Parse out;
  std::size_t line_start = 0;
  Record rec{};
  int fields = 0;          // completed fields on this line
  bool in_number = false;  // inside a digit run
  bool blank_seen = false; // a blank since the last completed field
  bool dead = false;       // the line is not a record
  bool too_big = false;
  std::uint64_t value = 0;
  auto end_number = [&] {
    rec[fields++] = static_cast<std::uint32_t>(value);
    in_number = false;
    blank_seen = false;
  };
  for (std::size_t i = 0; i <= size; ++i) {
    const int c = i < size ? data[i] : '\n';
    if (c == '\n') {
      if (!dead && in_number) end_number();
      if (!dead && fields == k) {
        if (too_big) {
          out.fail_at = line_start;
          return out;
        }
        out.records.push_back(rec);
      }
      line_start = i + 1;
      rec = {};
      fields = 0;
      in_number = blank_seen = dead = too_big = false;
      continue;
    }
    if (dead || fields == k) continue;
    if (in_number) {
      if (is_digit(c)) {
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        if (value > kMax) {
          too_big = true;
          value = kMax + 1;
        }
        continue;
      }
      end_number();
      if (fields == k) continue;  // the rest of the line is ignored
    }
    if (is_blank(c)) {
      blank_seen = true;
    } else if (is_digit(c) && (fields == 0 || blank_seen)) {
      in_number = true;
      value = static_cast<std::uint64_t>(c - '0');
    } else {
      dead = true;
    }
  }
  return out;
}

/// Loader outcome: records, or the IoError message.
struct Load {
  std::vector<Record> records;
  std::optional<std::string> error;
};

Load load(const std::string& path, int k, int threads) {
  Load out;
  try {
    if (k == 2) {
      const pcq::graph::EdgeList list =
          pcq::graph::load_snap_text(path, threads);
      for (const auto& e : list.edges()) out.records.push_back({e.u, e.v, 0});
    } else {
      const pcq::graph::TemporalEdgeList list =
          pcq::graph::load_temporal_text(path, threads);
      for (const auto& e : list.edges())
        out.records.push_back({e.u, e.v, e.t});
    }
  } catch (const pcq::IoError& e) {
    out.error = e.what();
  }
  return out;
}

/// One scratch file per process, removed at exit.
struct ScratchFile {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("pcq_fuzz_snap_text_" + std::to_string(::getpid())))
                         .string();
  ScratchFile() = default;
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() { std::remove(path.c_str()); }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const ScratchFile file;
  {
    std::FILE* f = std::fopen(file.path.c_str(), "wb");
    PCQ_FUZZ_ASSERT(f != nullptr, "cannot create the scratch file");
    const std::size_t wrote = size == 0 ? 0 : std::fwrite(data, 1, size, f);
    PCQ_FUZZ_ASSERT(std::fclose(f) == 0 && wrote == size,
                    "cannot write the scratch file");
  }

  for (int k : {2, 3}) {
    const Parse ref = reference_parse(data, size, k);
    std::optional<Load> first;
    for (int threads : {1, 3, 8}) {
      const Load got = load(file.path, k, threads);
      PCQ_FUZZ_ASSERT(got.error.has_value() == ref.fail_at.has_value(),
                      "loader and reference disagree on accept/IoError");
      if (got.error) {
        const std::string at = "at byte " + std::to_string(*ref.fail_at);
        PCQ_FUZZ_ASSERT(got.error->find(at) != std::string::npos,
                        "IoError names a different line than the reference");
      } else {
        PCQ_FUZZ_ASSERT(got.records == ref.records,
                        "loader records differ from the reference parse");
      }
      if (first)
        PCQ_FUZZ_ASSERT(got.records == first->records &&
                            got.error == first->error,
                        "loads at different thread counts differ");
      else
        first = got;
    }
  }
  return 0;
}
