// FNV-1a digest of a trace, for tests that pin the records of a seeded run.

#ifndef SA_TESTS_TRACE_DIGEST_H_
#define SA_TESTS_TRACE_DIGEST_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace.h"

namespace sa {

// FNV-1a over every field of every record.
inline uint64_t TraceDigest(const std::vector<trace::Record>& records) {
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  for (const trace::Record& r : records) {
    mix(static_cast<uint64_t>(r.ts));
    mix(static_cast<uint64_t>(static_cast<int64_t>(r.cpu)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(r.as_id)));
    mix(r.kind);
    mix(r.arg0);
    mix(r.arg1);
  }
  return digest;
}

}  // namespace sa

#endif  // SA_TESTS_TRACE_DIGEST_H_
