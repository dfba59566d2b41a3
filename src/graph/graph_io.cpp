#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <system_error>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"

namespace p2prank::graph {

void save_graph(const WebGraph& g, std::ostream& out) {
  out << "# p2prank crawl v1: " << g.num_pages() << " pages, " << g.num_links()
      << " internal links, " << g.num_external_links() << " external links\n";
  for (PageId p = 0; p < g.num_pages(); ++p) {
    out << "P " << g.url(p) << ' ' << g.site_name(g.site(p)) << '\n';
  }
  for (PageId p = 0; p < g.num_pages(); ++p) {
    for (const PageId q : g.out_links(p)) {
      out << "L " << g.url(p) << ' ' << g.url(q) << '\n';
    }
    if (g.external_out_degree(p) > 0) {
      out << "X " << g.url(p) << ' ' << g.external_out_degree(p) << '\n';
    }
  }
}

void save_graph_file(const WebGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_graph_file: cannot open " + path);
  save_graph(g, out);
}

WebGraph load_graph(std::istream& in) {
  GraphBuilder builder;
  // Two passes are avoided by deferring unknown link targets: the builder
  // resolves them at build(). Link sources, however, must already be pages,
  // so we queue L/X records and replay them after all P records.
  struct LinkRec {
    std::string from, to;
    std::size_t line_no;
  };
  struct ExtRec {
    std::string from;
    std::uint32_t count;
    std::size_t line_no;
  };
  std::vector<LinkRec> links;
  std::vector<ExtRec> externals;

  std::string line;
  std::size_t line_no = 0;
  auto fail_at = [](std::size_t at, const std::string& msg) {
    throw std::runtime_error("load_graph: line " + std::to_string(at) + ": " + msg);
  };
  auto fail = [&](const std::string& msg) { fail_at(line_no, msg); };
  auto reject_trailing = [&](std::istringstream& fields) {
    std::string extra;
    if (fields >> extra) fail("trailing token '" + extra + "'");
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "P") {
      std::string url, site;
      if (!(fields >> url >> site)) fail("malformed P record");
      reject_trailing(fields);
      try {
        builder.add_page(url, site);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    } else if (tag == "L") {
      LinkRec rec;
      if (!(fields >> rec.from >> rec.to)) fail("malformed L record");
      reject_trailing(fields);
      rec.line_no = line_no;
      links.push_back(std::move(rec));
    } else if (tag == "X") {
      ExtRec rec;
      std::string count;
      if (!(fields >> rec.from >> count)) fail("malformed X record");
      reject_trailing(fields);
      // Plain decimal digits only: operator>> into an unsigned type would
      // wrap a leading '-' (so "-1" read as 4294967295) and accept a '+'.
      const char* const end = count.data() + count.size();
      const auto [stop, err] = std::from_chars(count.data(), end, rec.count);
      if (!std::all_of(count.begin(), count.end(),
                       [](char c) { return c >= '0' && c <= '9'; }) ||
          err != std::errc{} || stop != end) {
        fail("X count '" + count + "' is not a decimal count below 2^32");
      }
      // save_graph never emits a zero count; accepting one would break the
      // round-trip (it silently vanishes on the next save).
      if (rec.count == 0) fail("X record with zero count");
      rec.line_no = line_no;
      externals.push_back(std::move(rec));
    } else {
      fail("unknown record tag '" + tag + "'");
    }
  }

  // Replay links now that every page is interned. A link *source* that was
  // never declared is a format error: we would not know its site.
  for (const auto& rec : links) {
    const auto from = builder.find(rec.from);
    if (!from) {
      fail_at(rec.line_no, "link source not declared as page: " + rec.from);
    }
    builder.add_link_to_url(*from, rec.to);
  }
  for (const auto& rec : externals) {
    const auto from = builder.find(rec.from);
    if (!from) {
      fail_at(rec.line_no, "X source not declared as page: " + rec.from);
    }
    builder.add_external_link(*from, rec.count);
  }
  return std::move(builder).build();
}

WebGraph load_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_graph_file: cannot open " + path);
  return load_graph(in);
}

// ---------------------------------------------------------------------------
// Binary CSR format ("p2pgrb1"). Layout, all integers little-endian:
//   char[8]  magic "p2pgrb1\n"
//   u64      num_pages, num_sites, num_links, total_external
//   per site: u32 length + name bytes
//   per page: u32 site id
//   per page: u32 length + url bytes
//   per page: varint external out-count
//   per page: varint out-degree, then delta-varint ascending targets
//             (first target absolute, the rest as gaps from the previous)
// The whole stream is staged through one in-memory buffer in both
// directions: varint decode from a flat byte array is what makes reload
// I/O-bound rather than parse-bound.

namespace {

constexpr char kBinaryMagic[8] = {'p', '2', 'p', 'g', 'r', 'b', '1', '\n'};

void put_u32(std::string& buf, std::uint32_t v) {
  char raw[4];
  std::memcpy(raw, &v, 4);
  buf.append(raw, 4);
}

void put_u64(std::string& buf, std::uint64_t v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  buf.append(raw, 8);
}

void put_varint(std::string& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf.push_back(static_cast<char>(v));
}

class BinaryReader {
 public:
  /// Reads `data`, which must outlive the reader.
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, need(4), 4);
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, need(8), 8);
    return v;
  }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const auto byte = static_cast<unsigned char>(*need(1));
      if (shift >= 63 && byte > 1) {
        throw std::runtime_error("load_graph_binary: varint overflow");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t len = u32();
    return {need(len), len};
  }

  void magic() {
    if (std::memcmp(need(8), kBinaryMagic, 8) != 0) {
      throw std::runtime_error("load_graph_binary: bad magic");
    }
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  const char* need(std::size_t count) {
    if (data_.size() - pos_ < count) {
      throw std::runtime_error("load_graph_binary: truncated stream");
    }
    const char* p = data_.data() + pos_;
    pos_ += count;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

class GraphBinaryIo {
 public:
  static void save(const WebGraph& g, std::ostream& out) {
    std::string buf;
    // Reserve a rough upper bound: fixed header + urls/site names + ~2 bytes
    // per link gap + site ids + a few varints per page.
    std::size_t reserve = 40 + 4 * g.num_links() + 16 * g.num_pages();
    for (PageId p = 0; p < g.num_pages(); ++p) reserve += g.url(p).size();
    for (SiteId s = 0; s < g.num_sites(); ++s) reserve += g.site_name(s).size();
    buf.reserve(reserve);

    buf.append(kBinaryMagic, 8);
    put_u64(buf, g.num_pages());
    put_u64(buf, g.num_sites());
    put_u64(buf, g.num_links());
    put_u64(buf, g.num_external_links());
    for (SiteId s = 0; s < g.num_sites(); ++s) {
      const std::string& name = g.site_name(s);
      put_u32(buf, static_cast<std::uint32_t>(name.size()));
      buf.append(name);
    }
    for (PageId p = 0; p < g.num_pages(); ++p) put_u32(buf, g.site(p));
    for (PageId p = 0; p < g.num_pages(); ++p) {
      const std::string& url = g.url(p);
      put_u32(buf, static_cast<std::uint32_t>(url.size()));
      buf.append(url);
    }
    for (PageId p = 0; p < g.num_pages(); ++p) {
      put_varint(buf, g.external_out_degree(p));
    }
    for (PageId p = 0; p < g.num_pages(); ++p) {
      const auto row = g.out_links(p);
      put_varint(buf, row.size());
      PageId prev = 0;
      bool first = true;
      for (const PageId t : row) {
        put_varint(buf, first ? t : t - prev);
        prev = t;
        first = false;
      }
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("save_graph_binary: write failed");
  }

  static WebGraph load(std::istream& in) {
    std::ostringstream staging;
    staging << in.rdbuf();
    const std::string data = std::move(staging).str();
    BinaryReader r(data);
    r.magic();

    const std::uint64_t n = r.u64();
    const std::uint64_t num_sites = r.u64();
    const std::uint64_t m = r.u64();
    const std::uint64_t total_external = r.u64();
    if (n >= static_cast<std::uint64_t>(kInvalidPage)) {
      throw std::runtime_error("load_graph_binary: page count out of range");
    }
    // Hostile headers must not drive allocation: every count below sizes a
    // buffer, so it must be backed by the bytes that follow, at the
    // smallest encoding of each item — 4 bytes per site name (its length),
    // 10 per page (site id, url length, external and out-degree varints),
    // 1 per link (its gap varint).
    const std::uint64_t rest = r.remaining();
    if (num_sites > rest / 4 || n > rest / 10 || m > rest ||
        4 * num_sites + 10 * n + m > rest) {
      throw std::runtime_error(
          "load_graph_binary: header counts exceed the stream (truncated or hostile)");
    }

    std::vector<std::string> site_names;
    site_names.reserve(num_sites);
    for (std::uint64_t s = 0; s < num_sites; ++s) site_names.push_back(r.str());

    std::vector<SiteId> sites(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      sites[p] = r.u32();
      if (sites[p] >= num_sites) {
        throw std::runtime_error("load_graph_binary: site id out of range");
      }
    }

    std::vector<std::string> urls;
    urls.reserve(n);
    for (std::uint64_t p = 0; p < n; ++p) urls.push_back(r.str());

    WebGraph g;
    g.external_out_.resize(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::uint64_t count = r.varint();
      if (count > std::numeric_limits<std::uint32_t>::max()) {
        throw std::runtime_error("load_graph_binary: external count out of range");
      }
      g.external_out_[p] = static_cast<std::uint32_t>(count);
      g.total_external_ += count;
    }
    if (g.total_external_ != total_external) {
      throw std::runtime_error("load_graph_binary: external link total mismatch");
    }

    g.out_offsets_.assign(n + 1, 0);
    g.out_targets_.reserve(m);
    g.in_offsets_.assign(n + 1, 0);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::uint64_t degree = r.varint();
      PageId prev = 0;
      for (std::uint64_t k = 0; k < degree; ++k) {
        const std::uint64_t gap = r.varint();
        const std::uint64_t target = (k == 0) ? gap : gap + prev;
        if (target >= n) {
          throw std::runtime_error("load_graph_binary: link target out of range");
        }
        prev = static_cast<PageId>(target);
        g.out_targets_.push_back(prev);
        ++g.in_offsets_[prev + 1];
      }
      g.out_offsets_[p + 1] = g.out_targets_.size();
    }
    if (g.out_targets_.size() != m) {
      throw std::runtime_error("load_graph_binary: link count mismatch");
    }
    if (!r.exhausted()) {
      throw std::runtime_error("load_graph_binary: trailing bytes");
    }

    // In-CSR derived exactly as the builders do: ascending-source scan over
    // the (already canonical) out rows.
    for (std::uint64_t i = 0; i < n; ++i) g.in_offsets_[i + 1] += g.in_offsets_[i];
    g.in_sources_.resize(m);
    {
      std::vector<std::uint64_t> cursor(g.in_offsets_.begin(),
                                        g.in_offsets_.end() - 1);
      for (PageId u = 0; u < n; ++u) {
        for (std::uint64_t k = g.out_offsets_[u]; k < g.out_offsets_[u + 1]; ++k) {
          g.in_sources_[cursor[g.out_targets_[k]]++] = u;
        }
      }
    }

    g.table_ = WebGraph::make_table(std::move(urls), std::move(site_names),
                                    std::move(sites));
    return g;
  }
};

void save_graph_binary(const WebGraph& g, std::ostream& out) {
  GraphBinaryIo::save(g, out);
}

void save_graph_binary_file(const WebGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_graph_binary_file: cannot open " + path);
  save_graph_binary(g, out);
}

WebGraph load_graph_binary(std::istream& in) { return GraphBinaryIo::load(in); }

WebGraph load_graph_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_graph_binary_file: cannot open " + path);
  return load_graph_binary(in);
}

}  // namespace p2prank::graph
