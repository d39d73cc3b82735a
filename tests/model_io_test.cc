// Tests for vec::SaveWord2Vec / LoadWord2Vec.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vec/model_io.h"
#include "test_temp.h"

namespace newslink {
namespace vec {
namespace {

std::vector<std::vector<std::string>> TinyCorpus() {
  std::vector<std::vector<std::string>> docs;
  Rng rng(1);
  const std::vector<std::string> sports = {"goal", "match", "league",
                                           "striker"};
  const std::vector<std::string> politics = {"vote", "ballot", "senate"};
  for (int d = 0; d < 20; ++d) {
    std::vector<std::string> a, b;
    for (int i = 0; i < 20; ++i) {
      a.push_back(sports[rng.Uniform(sports.size())]);
      b.push_back(politics[rng.Uniform(politics.size())]);
    }
    docs.push_back(a);
    docs.push_back(b);
  }
  return docs;
}

TEST(ModelIoTest, RoundTripPreservesEverything) {
  Word2VecModel model;
  SgnsConfig config;
  config.dim = 12;
  config.epochs = 3;
  config.min_count = 1;
  model.Train(TinyCorpus(), config);

  const ScopedTempDir temp;
  const std::string path = temp.File("nl_w2v_model.bin");
  ASSERT_TRUE(SaveWord2Vec(model, path).ok());
  Result<Word2VecModel> loaded = LoadWord2Vec(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->dim(), model.dim());
  EXPECT_EQ(loaded->vocab().size(), model.vocab().size());
  for (size_t i = 0; i < model.vocab().size(); ++i) {
    EXPECT_EQ(loaded->vocab().word(static_cast<int>(i)),
              model.vocab().word(static_cast<int>(i)));
    EXPECT_EQ(loaded->vocab().count(static_cast<int>(i)),
              model.vocab().count(static_cast<int>(i)));
  }
  EXPECT_EQ(loaded->input_matrix(), model.input_matrix());
  EXPECT_EQ(loaded->output_matrix(), model.output_matrix());

  // Behavioural equality: vectors and derived encodings match.
  const float* a = model.WordVector("goal");
  const float* b = loaded->WordVector("goal");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int k = 0; k < 12; ++k) EXPECT_FLOAT_EQ(a[k], b[k]);
  EXPECT_EQ(model.SifVector({"goal", "vote"}),
            loaded->SifVector({"goal", "vote"}));
}

TEST(ModelIoTest, MissingFileFails) {
  EXPECT_TRUE(LoadWord2Vec("/no/such/model.bin").status().IsIOError());
}

TEST(ModelIoTest, GarbageFileFails) {
  const ScopedTempDir temp;
  const std::string path = temp.File("nl_w2v_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model";
  }
  Result<Word2VecModel> loaded = LoadWord2Vec(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(ModelIoTest, TruncatedFileFails) {
  Word2VecModel model;
  SgnsConfig config;
  config.dim = 8;
  config.min_count = 1;
  model.Train(TinyCorpus(), config);
  const ScopedTempDir temp;
  const std::string full = temp.File("nl_w2v_full.bin");
  ASSERT_TRUE(SaveWord2Vec(model, full).ok());

  // Truncate to 60% and expect a clean error.
  const auto size = std::filesystem::file_size(full);
  const std::string cut = temp.File("nl_w2v_cut.bin");
  {
    std::ifstream in(full, std::ios::binary);
    std::vector<char> buffer(size * 6 / 10);
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    std::ofstream out(cut, std::ios::binary);
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  }
  Result<Word2VecModel> loaded = LoadWord2Vec(cut);
  EXPECT_FALSE(loaded.ok());
}

TEST(ModelIoTest, EmptyModelRoundTrips) {
  Word2VecModel model;
  SgnsConfig config;
  config.dim = 4;
  config.min_count = 5;  // nothing survives pruning
  model.Train({{"once"}}, config);
  const ScopedTempDir temp;
  const std::string path = temp.File("nl_w2v_empty.bin");
  ASSERT_TRUE(SaveWord2Vec(model, path).ok());
  Result<Word2VecModel> loaded = LoadWord2Vec(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->vocab().size(), 0u);
}

}  // namespace
}  // namespace vec
}  // namespace newslink
