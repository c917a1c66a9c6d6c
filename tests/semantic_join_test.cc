#include <gtest/gtest.h>

#include <map>
#include <set>

#include "learn/metrics.h"
#include "learn/semantic_join.h"

namespace her {
namespace {

class SemanticJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = UkgovSpec(111);
    spec.num_entities = 80;
    spec.annotations_per_class = 60;
    data_ = new GeneratedDataset(Generate(spec));
    split_ = new AnnotationSplit(SplitAnnotations(data_->annotations));
    HerConfig cfg;
    system_ = new HerSystem(data_->canonical, data_->g, cfg);
    system_->Train(data_->path_pairs, split_->validation);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete split_;
    delete data_;
    system_ = nullptr;
    split_ = nullptr;
    data_ = nullptr;
  }

  static GeneratedDataset* data_;
  static AnnotationSplit* split_;
  static HerSystem* system_;
};

GeneratedDataset* SemanticJoinTest::data_ = nullptr;
AnnotationSplit* SemanticJoinTest::split_ = nullptr;
HerSystem* SemanticJoinTest::system_ = nullptr;

TEST_F(SemanticJoinTest, UnknownRelationFails) {
  const auto rows = SemanticJoin(*system_, data_->db, "ghost");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
}

TEST_F(SemanticJoinTest, JoinsMostTrueMatches) {
  const auto rows = SemanticJoin(*system_, data_->db, "item");
  ASSERT_TRUE(rows.ok());
  std::set<std::pair<VertexId, VertexId>> joined;
  for (const JoinedRow& r : *rows) {
    joined.emplace(data_->canonical.VertexOf(r.tuple), r.vertex);
  }
  size_t hit = 0;
  for (const auto& [t, v] : data_->true_matches) {
    hit += joined.count({data_->canonical.VertexOf(t), v});
  }
  EXPECT_GE(hit * 10, data_->true_matches.size() * 8);  // >= 80% joined
}

TEST_F(SemanticJoinTest, ColumnsCarrySchemaAlignedValues) {
  const auto rows = SemanticJoin(*system_, data_->db, "item");
  ASSERT_TRUE(rows.ok());
  bool saw_column = false;
  for (const JoinedRow& r : *rows) {
    for (const JoinedRow::Column& c : r.columns) {
      saw_column = true;
      EXPECT_FALSE(c.attribute.empty());
      EXPECT_FALSE(c.path.empty());
      EXPECT_GE(c.score, 0.0);
      EXPECT_LE(c.score, 1.0);
    }
  }
  EXPECT_TRUE(saw_column);
}

TEST_F(SemanticJoinTest, ProjectionFiltersAttributes) {
  SemanticJoinOptions opts;
  opts.extract_attributes = {"color"};
  const auto rows = SemanticJoin(*system_, data_->db, "item", opts);
  ASSERT_TRUE(rows.ok());
  for (const JoinedRow& r : *rows) {
    for (const JoinedRow::Column& c : r.columns) {
      EXPECT_EQ(c.attribute, "color");
    }
  }
}

TEST_F(SemanticJoinTest, MaxMatchesPerTupleCapsFanout) {
  SemanticJoinOptions opts;
  opts.max_matches_per_tuple = 1;
  const auto rows = SemanticJoin(*system_, data_->db, "item", opts);
  ASSERT_TRUE(rows.ok());
  std::map<uint32_t, size_t> per_tuple;
  for (const JoinedRow& r : *rows) ++per_tuple[r.tuple.row];
  for (const auto& [row, count] : per_tuple) EXPECT_LE(count, 1u);
}

TEST_F(SemanticJoinTest, TextRenderingContainsKeys) {
  SemanticJoinOptions opts;
  opts.max_matches_per_tuple = 1;
  const auto rows = SemanticJoin(*system_, data_->db, "item", opts);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  const std::string text = JoinResultToText(data_->db, *rows);
  EXPECT_NE(text.find("|x|"), std::string::npos);
  EXPECT_NE(text.find('='), std::string::npos);
}

}  // namespace
}  // namespace her
