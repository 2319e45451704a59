#include "data/stream_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

namespace {

/// strtoull with full validation: the whole field must be one non-negative
/// integer that fits — no sign, no trailing garbage, no empty field, no
/// overflow. std::stoull would throw on garbage (an unhelpful uncaught
/// exception), silently accept "3abc", and wrap "-1" to a huge index.
size_t ParseIndexField(const std::string& field, size_t line_number) {
  SOFIA_CHECK(!field.empty() && field[0] != '-' && field[0] != '+')
      << "bad index field '" << field << "' at line " << line_number;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  SOFIA_CHECK(end == field.c_str() + field.size() && errno != ERANGE)
      << "bad index field '" << field << "' at line " << line_number;
  return static_cast<size_t>(v);
}

/// strtod with full validation plus the finiteness contract: streaming
/// methods must never see NaN/Inf payloads from the loader, so "nan"/"inf"
/// (which strtod happily parses) are rejected here with the line and slice
/// index instead of surfacing steps later as a poisoned factor row.
double ParseValueField(const std::string& field, size_t line_number,
                       size_t slice) {
  SOFIA_CHECK(!field.empty()) << "empty value at line " << line_number;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  SOFIA_CHECK(end == field.c_str() + field.size())
      << "bad value '" << field << "' at line " << line_number;
  SOFIA_CHECK(std::isfinite(v))
      << "non-finite value '" << field << "' at line " << line_number
      << " (slice " << slice << ")";
  return v;
}

}  // namespace

void WriteStreamCsv(std::ostream& out, const TensorStream& stream) {
  SOFIA_CHECK(!stream.slices.empty());
  SOFIA_CHECK_EQ(stream.slices.size(), stream.masks.size());
  const Shape& slice_shape = stream.slices[0].shape();

  out << "# shape";
  for (size_t n = 0; n < slice_shape.order(); ++n) {
    out << ' ' << slice_shape.dim(n);
  }
  out << ' ' << stream.slices.size() << '\n';
  out.precision(17);

  std::vector<size_t> idx(slice_shape.order(), 0);
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    SOFIA_CHECK(stream.slices[t].shape() == slice_shape);
    idx.assign(slice_shape.order(), 0);
    for (size_t linear = 0; linear < slice_shape.NumElements(); ++linear) {
      if (stream.masks[t].Get(linear)) {
        out << t;
        for (size_t n = 0; n < slice_shape.order(); ++n) out << ',' << idx[n];
        out << ',' << stream.slices[t][linear] << '\n';
      }
      slice_shape.Next(&idx);
    }
  }
}

bool WriteStreamCsvFile(const std::string& path, const TensorStream& stream) {
  std::ofstream f(path);
  if (!f) return false;
  WriteStreamCsv(f, stream);
  return static_cast<bool>(f);
}

TensorStream ReadStreamCsv(std::istream& in) {
  std::string line;
  SOFIA_CHECK(static_cast<bool>(std::getline(in, line)))
      << "empty stream file";
  std::istringstream header(line);
  std::string hash, word;
  SOFIA_CHECK(static_cast<bool>(header >> hash >> word) && hash == "#" &&
              word == "shape")
      << "missing '# shape ...' header";
  std::vector<size_t> dims;
  std::string token;
  while (header >> token) {
    dims.push_back(ParseIndexField(token, 1));
    SOFIA_CHECK_GE(dims.back(), 1u) << "zero dimension in the shape header";
  }
  SOFIA_CHECK_GE(dims.size(), 2u) << "header needs slice dims plus T";
  const size_t duration = dims.back();
  dims.pop_back();
  // The loader allocates every slice densely: cap the slice volume like a
  // checkpoint's counts, and reject a T whose total would overflow.
  size_t volume = 1;
  for (const size_t d : dims) {
    SOFIA_CHECK_LE(d, state_io::kMaxStateElements / volume)
        << "slice volume in the shape header exceeds "
        << state_io::kMaxStateElements << " entries";
    volume *= d;
  }
  SOFIA_CHECK_LE(duration, SIZE_MAX / volume)
      << "stream volume in the shape header overflows";
  Shape slice_shape(dims);

  TensorStream stream;
  stream.slices.assign(duration, DenseTensor(slice_shape, 0.0));
  stream.masks.assign(duration, Mask(slice_shape, false));

  std::vector<size_t> idx(slice_shape.order(), 0);
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream record(line);
    std::string field;
    SOFIA_CHECK(static_cast<bool>(std::getline(record, field, ',')))
        << "bad record at line " << line_number;
    const size_t t = ParseIndexField(field, line_number);
    SOFIA_CHECK_LT(t, duration) << "time index out of range at line "
                                << line_number;
    for (size_t n = 0; n < slice_shape.order(); ++n) {
      SOFIA_CHECK(static_cast<bool>(std::getline(record, field, ',')))
          << "bad record at line " << line_number;
      idx[n] = ParseIndexField(field, line_number);
      SOFIA_CHECK_LT(idx[n], slice_shape.dim(n))
          << "index out of range at line " << line_number;
    }
    SOFIA_CHECK(static_cast<bool>(std::getline(record, field, ',')))
        << "missing value at line " << line_number;
    const size_t linear = slice_shape.Linearize(idx);
    stream.slices[t][linear] = ParseValueField(field, line_number, t);
    stream.masks[t].Set(linear, true);
    SOFIA_CHECK(!static_cast<bool>(std::getline(record, field)))
        << "extra fields after value at line " << line_number;
  }
  return stream;
}

TensorStream ReadStreamCsvFile(const std::string& path) {
  std::ifstream f(path);
  SOFIA_CHECK(static_cast<bool>(f)) << "cannot open " << path;
  return ReadStreamCsv(f);
}

}  // namespace sofia
