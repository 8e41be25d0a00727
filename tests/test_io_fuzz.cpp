// test_io_fuzz.cpp — property/robustness tests for the PGM/PFM readers:
// truncated headers, absurd dimensions, NaN/Inf payloads and random byte
// mutations must throw std::runtime_error (or read a well-formed image)
// — never crash, hang, or allocate unbounded memory.  Runs under
// ASan/UBSan via scripts/check_sanitize.sh.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/io.hpp"

namespace sma {
namespace {

namespace fs = std::filesystem;

class IoFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sma_io_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& bytes) {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p.string();
  }

  // The reader must either succeed with sane dimensions or throw
  // std::runtime_error; anything else (crash, bad_alloc from a bogus
  // header, other exception types) fails the property.
  template <typename Reader>
  static void expect_throw_or_wellformed(Reader&& read,
                                         const std::string& path) {
    try {
      const imaging::ImageF img = read(path);
      EXPECT_GT(img.width(), 0);
      EXPECT_GT(img.height(), 0);
      EXPECT_LE(static_cast<std::int64_t>(img.width()) * img.height(),
                std::int64_t{1} << 26);
    } catch (const std::runtime_error&) {
      // well-formed rejection
    }
  }

  fs::path dir_;
};

std::string valid_p5(int w = 8, int h = 6) {
  std::string s = "P5\n" + std::to_string(w) + " " + std::to_string(h) +
                  "\n255\n";
  for (int i = 0; i < w * h; ++i)
    s.push_back(static_cast<char>((i * 37) & 0xff));
  return s;
}

std::string valid_pfm(int w = 8, int h = 6) {
  std::string s = "Pf\n" + std::to_string(w) + " " + std::to_string(h) +
                  "\n-1.0\n";
  for (int i = 0; i < w * h; ++i) {
    const float v = static_cast<float>(i) * 0.5f;
    char buf[sizeof(float)];
    std::memcpy(buf, &v, sizeof(float));
    s.append(buf, sizeof(float));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Truncation: every proper prefix of a valid file must throw cleanly.
// ---------------------------------------------------------------------------

TEST_F(IoFuzz, EveryPgmPrefixThrows) {
  const std::string full = valid_p5();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string path =
        write_file("prefix_" + std::to_string(len) + ".pgm",
                   full.substr(0, len));
    EXPECT_THROW(imaging::read_pgm(path), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST_F(IoFuzz, EveryPfmPrefixThrows) {
  const std::string full = valid_pfm();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string path =
        write_file("prefix_" + std::to_string(len) + ".pfm",
                   full.substr(0, len));
    EXPECT_THROW(imaging::read_pfm(path), std::runtime_error)
        << "prefix length " << len;
  }
}

// ---------------------------------------------------------------------------
// Hostile headers: the reader must reject before allocating.
// ---------------------------------------------------------------------------

TEST_F(IoFuzz, AbsurdDimensionsThrowWithoutAllocating) {
  const std::vector<std::string> headers = {
      "P5\n0 8\n255\n",        "P5\n8 0\n255\n",
      "P5\n-3 8\n255\n",       "P5\n8 -3\n255\n",
      "P5\n70000 8\n255\n",    "P5\n8 70000\n255\n",
      // Both edges individually below kMaxDim, product 3.6e9 pixels: the
      // total-pixel cap must reject this before a ~14 GiB allocation.
      "P5\n60000 60000\n255\n",
      "P5\n2147483647 2147483647\n255\n",
      "P5\nx 8\n255\n",        "P5\n8\n",
  };
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const std::string path =
        write_file("dims_" + std::to_string(i) + ".pgm", headers[i] + "data");
    EXPECT_THROW(imaging::read_pgm(path), std::runtime_error) << headers[i];
  }
}

TEST_F(IoFuzz, PfmAbsurdDimensionsThrow) {
  for (const std::string header :
       {"Pf\n0 6\n-1.0\n", "Pf\n-8 6\n-1.0\n", "Pf\n100000 2\n-1.0\n",
        "Pf\n60000 60000\n-1.0\n", "Pf\nnope 6\n-1.0\n"}) {
    const std::string path = write_file("pfmdims.pfm", header + "xxxx");
    EXPECT_THROW(imaging::read_pfm(path), std::runtime_error) << header;
  }
}

TEST_F(IoFuzz, BadMagicAndMaxvalThrow) {
  for (const std::string content :
       {std::string("P6\n8 6\n255\ndata"), std::string("JUNK"),
        std::string(""), std::string("P5\n8 6\n0\n"),
        std::string("P5\n8 6\n-1\n"), std::string("P5\n8 6\n70000\n"),
        valid_pfm()}) {  // a well-formed PFM is still not a PGM
    const std::string path = write_file("bad.pgm", content);
    EXPECT_THROW(imaging::read_pgm(path), std::runtime_error);
  }
  EXPECT_THROW(imaging::read_pgm((dir_ / "missing.pgm").string()),
               std::runtime_error);
}

TEST_F(IoFuzz, AsciiPgmOutOfRangeSamplesThrow) {
  EXPECT_THROW(
      imaging::read_pgm(write_file("p2a.pgm", "P2\n2 2\n255\n1 2 3 999\n")),
      std::runtime_error);
  EXPECT_THROW(
      imaging::read_pgm(write_file("p2b.pgm", "P2\n2 2\n255\n1 2 -3 4\n")),
      std::runtime_error);
  EXPECT_THROW(
      imaging::read_pgm(write_file("p2c.pgm", "P2\n2 2\n255\n1 2 three 4\n")),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// PFM payload and scale pathologies.
// ---------------------------------------------------------------------------

TEST_F(IoFuzz, PfmNonFinitePayloadThrows) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::string s = valid_pfm(4, 3);
    // Overwrite one mid-payload sample (8th float from the end).
    char buf[sizeof(float)];
    std::memcpy(buf, &bad, sizeof(float));
    s.replace(s.size() - 8 * sizeof(float), sizeof(float), buf,
              sizeof(float));
    EXPECT_THROW(imaging::read_pfm(write_file("nan.pfm", s)),
                 std::runtime_error);
  }
}

TEST_F(IoFuzz, PfmScaleAndFormatPathologiesThrow) {
  for (const std::string content :
       {std::string("PF\n4 3\n-1.0\n"),      // color PFM
        std::string("Pf\n4 3\n0.0\n"),       // zero scale
        std::string("Pf\n4 3\n1.0\n"),       // big-endian
        std::string("Pf\n4 3\nnan\n"),       // non-finite scale
        std::string("Pf\n4 3\n"),            // missing scale
        valid_p5()}) {                       // a well-formed PGM
    const std::string path = write_file("scale.pfm", content + "xxxxxxxx");
    EXPECT_THROW(imaging::read_pfm(path), std::runtime_error);
  }
}

TEST_F(IoFuzz, ValidFilesStillRead) {
  const imaging::ImageF pgm =
      imaging::read_pgm(write_file("ok.pgm", valid_p5()));
  EXPECT_EQ(pgm.width(), 8);
  EXPECT_EQ(pgm.height(), 6);
  const imaging::ImageF pfm =
      imaging::read_pfm(write_file("ok.pfm", valid_pfm()));
  EXPECT_EQ(pfm.width(), 8);
  EXPECT_EQ(pfm.height(), 6);
  // PFM stores rows bottom-to-top: file sample 1 lands on the last row.
  EXPECT_FLOAT_EQ(pfm.at(1, 5), 0.5f);
}

// ---------------------------------------------------------------------------
// Deterministic random mutations: flip bytes anywhere in a valid file.
// ---------------------------------------------------------------------------

TEST_F(IoFuzz, RandomByteMutationsNeverCrashPgm) {
  const std::string base = valid_p5(16, 12);
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = base;
    const int flips = 1 + (iter % 4);
    for (int f = 0; f < flips; ++f)
      mutated[pos(rng)] = static_cast<char>(byte(rng));
    const std::string path = write_file("mut.pgm", mutated);
    expect_throw_or_wellformed(
        [](const std::string& p) { return imaging::read_pgm(p); }, path);
  }
}

TEST_F(IoFuzz, RandomByteMutationsNeverCrashPfm) {
  const std::string base = valid_pfm(16, 12);
  std::mt19937 rng(0xBEEF);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = base;
    const int flips = 1 + (iter % 4);
    for (int f = 0; f < flips; ++f)
      mutated[pos(rng)] = static_cast<char>(byte(rng));
    const std::string path = write_file("mut.pfm", mutated);
    expect_throw_or_wellformed(
        [](const std::string& p) { return imaging::read_pfm(p); }, path);
  }
}

TEST_F(IoFuzz, PureGarbageNeverCrashes) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 4096);
  for (int iter = 0; iter < 100; ++iter) {
    std::string garbage(size(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(byte(rng));
    const std::string path = write_file("garbage.bin", garbage);
    expect_throw_or_wellformed(
        [](const std::string& p) { return imaging::read_pgm(p); }, path);
    expect_throw_or_wellformed(
        [](const std::string& p) { return imaging::read_pfm(p); }, path);
  }
}

}  // namespace
}  // namespace sma
