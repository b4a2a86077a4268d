// Index-free ground truth for the verification step: a bidirectional
// product BFS (baselines/online_search.h) with each constraint compiled
// once per graph.
#pragma once

#include <map>
#include <memory>

#include "rlc/automaton/path_constraint.h"
#include "rlc/baselines/online_search.h"
#include "rlc/core/label_seq.h"
#include "rlc/graph/digraph.h"

namespace perfbench {

class OnlineOracle {
 public:
  explicit OnlineOracle(const rlc::DiGraph& g) : g_(g), searcher_(g) {}

  bool Reaches(rlc::VertexId s, rlc::VertexId t, const rlc::LabelSeq& seq) {
    auto it = compiled_.find(seq);
    if (it == compiled_.end()) {
      it = compiled_
               .emplace(seq, std::make_unique<rlc::CompiledConstraint>(
                                 rlc::PathConstraint::RlcPlus(seq),
                                 g_.num_labels()))
               .first;
    }
    return searcher_.QueryBiBfs(s, t, *it->second);
  }

 private:
  const rlc::DiGraph& g_;
  rlc::OnlineSearcher searcher_;
  std::map<rlc::LabelSeq, std::unique_ptr<rlc::CompiledConstraint>> compiled_;
};

}  // namespace perfbench
