#include "support/binio.h"

#include <gtest/gtest.h>

#include <vector>

namespace cac::support {
namespace {

TEST(BinIo, ZeroLengthFieldDecodesIntoEmptyBuffer) {
  // An empty field (an empty memory bank, say) decodes into an empty
  // buffer whose data() is null: the read must not hand that pointer
  // to memcpy.
  BinWriter w;
  w.str("");
  BinReader r(w.buffer());
  std::vector<char> out(r.u64());
  r.bytes(out.data(), out.size());
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace cac::support
