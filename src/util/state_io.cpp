#include "util/state_io.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

namespace sofia {
namespace state_io {

namespace {

/// Reads one size field under the plausibility cap. A stream in a failed
/// state, a negative number, or an implausibly huge count all throw — the
/// caller never allocates from an untrusted size.
size_t ReadCount(std::istream& in, const char* what, size_t cap) {
  long long n = 0;
  Require(static_cast<bool>(in >> n), what);
  Require(n >= 0 && static_cast<unsigned long long>(n) <= cap, what);
  return static_cast<size_t>(n);
}

double ReadDouble(std::istream& in, const char* what) {
  double x = 0.0;
  Require(static_cast<bool>(in >> x), what);
  return x;
}

/// Reads `n` doubles into a buffer that grows as values parse, so a count
/// inflated by corruption (still under the cap) fails at the first missing
/// value instead of first allocating and zero-filling up to 2 GiB.
std::vector<double> ReadDoubles(std::istream& in, size_t n,
                                const char* what) {
  std::vector<double> v;
  v.reserve(std::min<size_t>(n, 4096));
  for (size_t i = 0; i < n; ++i) v.push_back(ReadDouble(in, what));
  return v;
}

}  // namespace

void BeginState(std::ostream& out, const char* tag, int version) {
  out << tag << " v" << version << '\n';
  out.precision(std::numeric_limits<double>::max_digits10);
}

int ReadStateHeader(std::istream& in, const char* tag, int max_version) {
  std::string got_tag, got_version;
  if (!(in >> got_tag >> got_version) || got_tag != tag) {
    throw StateError(std::string("not a ") + tag + " checkpoint");
  }
  if (got_version.size() < 2 || got_version[0] != 'v' ||
      got_version.find_first_not_of("0123456789", 1) != std::string::npos ||
      got_version.size() > 10) {
    throw StateError(std::string("malformed ") + tag +
                     " checkpoint version '" + got_version + "'");
  }
  const int version = std::stoi(got_version.substr(1));
  if (version < 1 || version > max_version) {
    throw StateError(std::string(tag) + " checkpoint version " +
                     std::to_string(version) + " unsupported (max " +
                     std::to_string(max_version) + ")");
  }
  return version;
}

void WriteVector(std::ostream& out, const std::vector<double>& v) {
  out << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
}

std::vector<double> ReadVector(std::istream& in) {
  const char* what = "corrupt checkpoint (vector)";
  const size_t n = ReadCount(in, what, kMaxStateElements);
  return ReadDoubles(in, n, what);
}

void WriteMatrix(std::ostream& out, const Matrix& m) {
  out << m.rows() << ' ' << m.cols();
  for (size_t k = 0; k < m.size(); ++k) out << ' ' << m.data()[k];
  out << '\n';
}

Matrix ReadMatrix(std::istream& in) {
  const char* what = "corrupt checkpoint (matrix)";
  const size_t rows = ReadCount(in, what, kMaxStateElements);
  const size_t cols = ReadCount(in, what, kMaxStateElements);
  Require(rows == 0 || cols <= kMaxStateElements / rows, what);
  const std::vector<double> values = ReadDoubles(in, rows * cols, what);
  Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

void WriteMatrixList(std::ostream& out, const std::vector<Matrix>& ms) {
  out << ms.size() << '\n';
  for (const Matrix& m : ms) WriteMatrix(out, m);
}

std::vector<Matrix> ReadMatrixList(std::istream& in) {
  const size_t n =
      ReadCount(in, "corrupt checkpoint (matrix list)", /*cap=*/4096);
  std::vector<Matrix> ms;
  ms.reserve(n);
  for (size_t i = 0; i < n; ++i) ms.push_back(ReadMatrix(in));
  return ms;
}

void WriteTensor(std::ostream& out, const DenseTensor& t) {
  out << t.order();
  for (size_t n = 0; n < t.order(); ++n) out << ' ' << t.dim(n);
  for (size_t k = 0; k < t.NumElements(); ++k) out << ' ' << t[k];
  out << '\n';
}

DenseTensor ReadTensor(std::istream& in) {
  const char* what = "corrupt checkpoint (tensor)";
  const size_t order = ReadCount(in, what, /*cap=*/16);
  std::vector<size_t> dims(order);
  size_t volume = 1;
  for (size_t& d : dims) {
    d = ReadCount(in, what, kMaxStateElements);
    Require(d == 0 || volume <= kMaxStateElements / d, what);
    volume *= d;
  }
  const Shape shape(dims);
  const std::vector<double> values =
      ReadDoubles(in, shape.NumElements(), what);
  DenseTensor t(shape);
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

void WriteShape(std::ostream& out, const Shape& shape) {
  out << shape.order();
  for (size_t n = 0; n < shape.order(); ++n) out << ' ' << shape.dim(n);
  out << '\n';
}

Shape ReadShape(std::istream& in) {
  const char* what = "corrupt checkpoint (shape)";
  const size_t order = ReadCount(in, what, /*cap=*/16);
  std::vector<size_t> dims(order);
  size_t volume = 1;
  for (size_t& d : dims) {
    d = ReadCount(in, what, kMaxStateElements);
    Require(d == 0 || volume <= kMaxStateElements / d, what);
    volume *= d;
  }
  return Shape(dims);
}

void WriteMask(std::ostream& out, const Mask& mask) {
  WriteShape(out, mask.shape());
  const std::vector<size_t> observed = mask.ObservedIndices();
  out << observed.size();
  for (size_t k : observed) out << ' ' << k;
  out << '\n';
}

Mask ReadMask(std::istream& in) {
  const char* what = "corrupt checkpoint (mask)";
  const Shape shape = ReadShape(in);
  const size_t nnz = ReadCount(in, what, shape.NumElements());
  Mask mask(shape, /*observed=*/false);
  for (size_t i = 0; i < nnz; ++i) {
    const size_t linear = ReadCount(in, what, kMaxStateElements);
    Require(linear < shape.NumElements(),
            "corrupt checkpoint (mask index out of range)");
    mask.Set(linear, true);
  }
  return mask;
}

}  // namespace state_io
}  // namespace sofia
