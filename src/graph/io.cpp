#include "graph/io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "par/parallel_for.hpp"
#include "util/io_error.hpp"

namespace pcq::graph {

namespace {

/// RAII stdio handle. Open and read failures throw pcq::IoError — edge
/// lists come from user-supplied paths, so a missing or corrupt file is a
/// reportable condition, not a programming error (the CLI turns it into
/// exit code 3).
class File {
 public:
  File(const std::string& path, const char* mode)
      : path_(path), f_(std::fopen(path.c_str(), mode)) {
    if (f_ == nullptr) throw IoError(path_, "cannot open file");
  }
  ~File() {
    if (f_) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  std::FILE* get() const { return f_; }
  [[noreturn]] void fail(const std::string& what) const {
    throw IoError(path_, what);
  }

  /// Size of the file, which must be a regular file: the text loaders
  /// read it at offsets.
  std::uint64_t regular_size() const {
    struct stat st {};
    if (::fstat(::fileno(f_), &st) != 0 || !S_ISREG(st.st_mode))
      fail("not a regular file");
    return static_cast<std::uint64_t>(st.st_size);
  }

  /// Reads exactly `n` bytes at `offset` with pread, which several threads
  /// may call at once and which leaves the stream position alone.
  void read_at(char* dst, std::size_t n, std::uint64_t offset) const {
    while (n > 0) {
      const ssize_t got =
          ::pread(::fileno(f_), dst, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) fail("read failed");
      dst += got;
      n -= static_cast<std::size_t>(got);
      offset += static_cast<std::uint64_t>(got);
    }
  }

 private:
  std::string path_;
  std::FILE* f_;
};

/// Read buffer size of the loaders: binary loads read this much at a time,
/// and each text-parser thread reads through a slab of this size (grown
/// only for a line longer than itself).
constexpr std::size_t kSlabBytes = std::size_t{8} << 20;

/// Bounded-slab bulk read of `count` PODs: a corrupt header can declare a
/// count worth many gigabytes, and allocating it all before the first
/// fread is itself a denial of service. 8 MiB at a time bounds the waste
/// before the truncation is detected.
template <typename T>
std::vector<T> read_pod_array(const File& f, std::uint64_t count,
                              const char* what) {
  const std::size_t kSlab = kSlabBytes / sizeof(T);
  std::vector<T> items;
  items.reserve(std::min<std::uint64_t>(count, kSlab));
  std::size_t done = 0;
  while (done < count) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kSlab, count - done));
    items.resize(done + n);
    if (std::fread(items.data() + done, sizeof(T), n, f.get()) != n)
      f.fail(what);
    done += n;
  }
  return items;
}

// ---- Chunked parallel text parser ------------------------------------------
//
// The file is split into p byte ranges and each range owns the lines that
// start in it. Every thread reads its range with pread through its own
// bounded slab (never mapping the file: mapped pages count toward peak RSS)
// and appends to a thread-local vector; the parts are then concatenated in
// file order. The line grammar is the one documented in io.hpp.

/// Largest id or time frame the text loaders accept: 2^32 - 2, so that
/// num_nodes() and num_frames() (max + 1) still fit in 32 bits.
constexpr std::uint64_t kMaxTextValue = 0xFFFF'FFFE;

/// How far a read runs past its range's end to finish the last line.
constexpr std::size_t kTextTail = 4096;

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
bool is_digit(char c) { return static_cast<unsigned>(c - '0') < 10u; }

enum class LineKind { kSkip, kRecord, kOutOfRange };

/// Reads the K leading fields of the line at `p`, which a '\n' ends, and
/// leaves `p` where it stopped (at or before that '\n').
template <int K>
LineKind parse_line(const char*& p, std::uint32_t (&fields)[K]) {
  bool out_of_range = false;
  for (int k = 0; k < K; ++k) {
    // A field's digit run ends at a non-digit, so a non-blank right after
    // it fails the digit test below: fields need blanks between them.
    while (is_blank(*p)) ++p;
    if (!is_digit(*p)) return LineKind::kSkip;
    std::uint64_t v = 0;
    do {
      v = v * 10 + static_cast<unsigned>(*p++ - '0');
      if (v > kMaxTextValue) {
        out_of_range = true;
        v = kMaxTextValue + 1;  // saturate: digits may run on arbitrarily
      }
    } while (is_digit(*p));
    fields[k] = static_cast<std::uint32_t>(v);
  }
  return out_of_range ? LineKind::kOutOfRange : LineKind::kRecord;
}

/// Parses the lines that start in bytes [begin, end) of `file`, in order.
template <typename Rec, int K>
std::vector<Rec> parse_range(const File& file, std::uint64_t size,
                             std::uint64_t begin, std::uint64_t end) {
  std::vector<Rec> out;
  // A record line takes at least 2K bytes with its '\n', which bounds the
  // count. The reserve is virtual until written, and the parse never
  // reallocates.
  out.reserve((end - begin) / (2 * K) + 1);
  // One spare byte past the data holds the sentinel '\n' at end of file.
  std::vector<char> slab(
      std::min<std::uint64_t>(kSlabBytes, end - begin + kTextTail) + 1);
  // slab[0] holds file byte `off`. A range that does not start the file
  // opens one byte early, to learn whether a line starts at `begin`.
  std::uint64_t off = begin > 0 ? begin - 1 : 0;
  std::size_t have = 0;
  bool at_line_start = begin == 0;
  std::size_t reach = kTextTail;  // doubles per read past `end`
  for (;;) {
    if (have + 1 == slab.size()) slab.resize(2 * slab.size());
    const std::uint64_t next = off + have;
    std::uint64_t want = std::min<std::uint64_t>(slab.size() - 1 - have,
                                                 size - next);
    if (next < end) {
      want = std::min<std::uint64_t>(want, end - next + kTextTail);
    } else {
      want = std::min<std::uint64_t>(want, reach);
      reach *= 2;
    }
    file.read_at(slab.data() + have, static_cast<std::size_t>(want), next);
    const std::size_t old = have;  // slab[0, old) holds no '\n'
    have += static_cast<std::size_t>(want);
    const bool eof = off + have == size;

    char* const data = slab.data();
    const char* stop = nullptr;  // one past the last complete line
    if (eof) {
      data[have] = '\n';
      stop = data + have + 1;
    } else {
      const void* last = ::memrchr(data + old, '\n', have - old);
      if (last == nullptr) {
        // Still inside one line. Keep it if this range owns it; else it
        // belongs to an earlier range and is dropped.
        if (!at_line_start) {
          off += have;
          have = 0;
        }
        continue;
      }
      stop = static_cast<const char*>(last) + 1;
    }
    const char* p = data;
    if (!at_line_start) {
      p = static_cast<const char*>(std::memchr(p, '\n', stop - p)) + 1;
      at_line_start = true;
    }
    while (p < stop) {
      const std::uint64_t line_at = off + static_cast<std::uint64_t>(p - data);
      if (line_at >= end) return out;
      std::uint32_t f[K];
      const LineKind kind = parse_line<K>(p, f);
      if (kind == LineKind::kOutOfRange)
        file.fail("id or time frame above " + std::to_string(kMaxTextValue) +
                  " in the line at byte " + std::to_string(line_at));
      if (kind == LineKind::kRecord) {
        if constexpr (K == 2)
          out.push_back({f[0], f[1]});
        else
          out.push_back({f[0], f[1], f[2]});
      }
      if (*p != '\n')
        p = static_cast<const char*>(std::memchr(p, '\n', stop - p));
      ++p;
    }
    if (eof) return out;
    const auto done = static_cast<std::size_t>(stop - data);
    std::memmove(data, stop, have - done);
    off += done;
    have -= done;
  }
}

/// Parses `path` with up to `num_threads` threads, one byte range each, and
/// returns the records in file order. On failure rethrows the error of the
/// first range that failed, i.e. the one about the earliest bad line.
template <typename Rec, int K>
std::vector<Rec> load_text_records(const std::string& path, int num_threads) {
  const File file(path, "r");
  const auto size = static_cast<std::size_t>(file.regular_size());
  const int p = par::clamp_threads(num_threads);
  const std::size_t chunks =
      par::num_nonempty_chunks(size, static_cast<std::size_t>(p));
  std::vector<std::vector<Rec>> parts(chunks);
  std::vector<std::exception_ptr> errors(chunks);
  par::parallel_for_chunks(size, p, [&](std::size_t c, par::ChunkRange r) {
    try {
      parts[c] = parse_range<Rec, K>(file, size, r.begin, r.end);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  if (chunks == 1) return std::move(parts[0]);

  std::vector<std::size_t> at(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) at[c + 1] = at[c] + parts[c].size();
  std::vector<Rec> all(at[chunks]);
  par::parallel_for(chunks, p, [&](std::size_t c) {
    std::copy(parts[c].begin(), parts[c].end(),
              all.begin() + static_cast<std::ptrdiff_t>(at[c]));
    std::vector<Rec>().swap(parts[c]);
  });
  return all;
}

}  // namespace

EdgeList load_snap_text(const std::string& path, int num_threads) {
  return EdgeList(load_text_records<Edge, 2>(path, num_threads));
}

void save_snap_text(const EdgeList& list, const std::string& path) {
  File f(path, "w");
  std::fprintf(f.get(), "# Directed edge list (pcq)\n# Nodes: %u Edges: %zu\n",
               list.num_nodes(), list.size());
  for (const Edge& e : list.edges())
    std::fprintf(f.get(), "%u\t%u\n", e.u, e.v);
}

TemporalEdgeList load_temporal_text(const std::string& path,
                                    int num_threads) {
  return TemporalEdgeList(
      load_text_records<TemporalEdge, 3>(path, num_threads));
}

void save_temporal_text(const TemporalEdgeList& list, const std::string& path) {
  File f(path, "w");
  std::fprintf(f.get(), "# Temporal edge list (pcq): u v t\n");
  for (const TemporalEdge& e : list.edges())
    std::fprintf(f.get(), "%u\t%u\t%u\n", e.u, e.v, e.t);
}

namespace {
constexpr char kMagic[8] = {'P', 'C', 'Q', 'E', 'D', 'G', 'E', '1'};
constexpr char kTemporalMagic[8] = {'P', 'C', 'Q', 'T', 'E', 'M', 'P', '1'};
}

EdgeList load_binary(const std::string& path) {
  File f(path, "rb");
  char magic[8];
  if (std::fread(magic, 1, 8, f.get()) != 8) f.fail("truncated header");
  if (std::memcmp(magic, kMagic, 8) != 0) f.fail("bad edge-list magic");
  std::uint64_t count = 0;
  if (std::fread(&count, sizeof count, 1, f.get()) != 1)
    f.fail("truncated header");
  return EdgeList(read_pod_array<Edge>(f, count, "truncated edge list"));
}

void save_binary(const EdgeList& list, const std::string& path) {
  File f(path, "wb");
  if (std::fwrite(kMagic, 1, 8, f.get()) != 8) f.fail("short write");
  const std::uint64_t count = list.size();
  if (std::fwrite(&count, sizeof count, 1, f.get()) != 1) f.fail("short write");
  if (count > 0 && std::fwrite(list.edges().data(), sizeof(Edge), count,
                               f.get()) != count)
    f.fail("short write");
}

TemporalEdgeList load_temporal_binary(const std::string& path) {
  File f(path, "rb");
  char magic[8];
  if (std::fread(magic, 1, 8, f.get()) != 8) f.fail("truncated header");
  if (std::memcmp(magic, kTemporalMagic, 8) != 0)
    f.fail("bad temporal edge-list magic");
  std::uint64_t count = 0;
  if (std::fread(&count, sizeof count, 1, f.get()) != 1)
    f.fail("truncated header");
  return TemporalEdgeList(
      read_pod_array<TemporalEdge>(f, count, "truncated temporal edge list"));
}

void save_temporal_binary(const TemporalEdgeList& list,
                          const std::string& path) {
  File f(path, "wb");
  if (std::fwrite(kTemporalMagic, 1, 8, f.get()) != 8) f.fail("short write");
  const std::uint64_t count = list.size();
  if (std::fwrite(&count, sizeof count, 1, f.get()) != 1) f.fail("short write");
  if (count > 0 && std::fwrite(list.edges().data(), sizeof(TemporalEdge), count,
                               f.get()) != count)
    f.fail("short write");
}

}  // namespace pcq::graph
