#ifndef SOFIA_TENSOR_PATTERN_STORAGE_H_
#define SOFIA_TENSOR_PATTERN_STORAGE_H_

#include <string>

/// \file pattern_storage.hpp
/// \brief Name of the observed-entry storage backend of a step pattern.

namespace sofia {

/// The sparse representation the per-step kernels traverse: the flat
/// coordinate list of tensor/coo_list.hpp, the only backend.
enum class PatternStorage {
  kCoo,
};

/// "coo" — printed in the defaults block of the repository benchmark.
inline std::string PatternStorageName(PatternStorage) { return "coo"; }

}  // namespace sofia

#endif  // SOFIA_TENSOR_PATTERN_STORAGE_H_
