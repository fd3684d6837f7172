#include "analysis/validator.h"

#include <cmath>
#include <set>

#include "common/stringf.h"

namespace lqs {

std::string ValidationIssue::ToString() const {
  std::string out = check;
  if (node_id >= 0) out += StringF(" [node %d]", node_id);
  if (pipeline_id >= 0) out += StringF(" [pipeline %d]", pipeline_id);
  out += ": " + detail;
  return out;
}

void ValidationReport::Add(std::string check, int node_id, int pipeline_id,
                           std::string detail) {
  issues_.push_back(ValidationIssue{std::move(check), node_id, pipeline_id,
                                    std::move(detail)});
}

std::string ValidationReport::ToString() const {
  std::string out;
  for (const ValidationIssue& issue : issues_) {
    out += issue.ToString();
    out += "\n";
  }
  return out;
}

Status ValidationReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::Internal(StringF("%zu invariant violation(s):\n",
                                  issues_.size()) +
                          ToString());
}

namespace {

/// Expected child count per operator; -1 means "one or more" (Concatenation).
int ExpectedChildren(OpType type) {
  switch (type) {
    case OpType::kTableScan:
    case OpType::kClusteredIndexScan:
    case OpType::kClusteredIndexSeek:
    case OpType::kIndexScan:
    case OpType::kIndexSeek:
    case OpType::kConstantScan:
    case OpType::kColumnstoreScan:
      return 0;
    case OpType::kRidLookup:
      return 0;
    case OpType::kHashJoin:
    case OpType::kMergeJoin:
    case OpType::kNestedLoopJoin:
      return 2;
    case OpType::kConcatenation:
      return -1;
    case OpType::kNumOpTypes:
      return 0;
    default:
      return 1;
  }
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

void PlanValidator::CheckStructure(const Plan& plan,
                                   ValidationReport* report) const {
  if (plan.root == nullptr) {
    report->Add("plan.root", -1, -1, "finalized plan has null root");
    return;
  }
  const int n = plan.size();
  if (plan.root->CountNodes() != n) {
    report->Add("plan.id_density", -1, -1,
                StringF("tree has %d nodes but flat index has %d",
                        plan.root->CountNodes(), n));
  }

  // Ids must be unique, in [0, n), pre-order, and the flat index must point
  // back at the node carrying the id. Unique ids over a unique_ptr tree also
  // rule out aliasing/cycles in the flat view.
  std::set<int> seen;
  int expected_preorder = 0;
  bool preorder_ok = true;
  plan.root->Visit([&](const PlanNode& node) {
    if (node.id < 0 || node.id >= n) {
      report->Add("plan.id_range", node.id, -1,
                  StringF("id out of range [0, %d)", n));
      preorder_ok = false;
      return;
    }
    if (!seen.insert(node.id).second) {
      report->Add("plan.id_unique", node.id, -1, "duplicate node id");
    }
    if (node.id != expected_preorder) preorder_ok = false;
    expected_preorder++;
    if (static_cast<size_t>(node.id) < plan.nodes.size() &&
        plan.nodes[node.id] != &node) {
      report->Add("plan.flat_index", node.id, -1,
                  "plan.nodes[id] does not point at the node carrying id");
    }
  });
  if (!preorder_ok) {
    report->Add("plan.id_preorder", -1, -1,
                "node ids are not dense pre-order (FinalizePlan contract)");
  }

  plan.root->Visit([&](const PlanNode& node) {
    const int want = ExpectedChildren(node.type);
    const int got = static_cast<int>(node.children.size());
    if ((want >= 0 && got != want) || (want < 0 && got < 1)) {
      report->Add("plan.arity", node.id, -1,
                  StringF("%s has %d children, expected %s",
                          OpTypeName(node.type), got,
                          want >= 0 ? StringF("%d", want).c_str() : ">= 1"));
    }
    if (node.bitmap_source_id >= 0) {
      if (node.bitmap_source_id >= n ||
          plan.node(node.bitmap_source_id).type != OpType::kBitmapCreate) {
        report->Add("plan.bitmap_ref", node.id, -1,
                    StringF("bitmap_source_id %d is not a BitmapCreate node",
                            node.bitmap_source_id));
      }
    }
    if (catalog_ != nullptr && IsScan(node.type) &&
        node.type != OpType::kConstantScan) {
      if (catalog_->GetTable(node.table_name) == nullptr) {
        report->Add("plan.table_ref", node.id, -1,
                    "references unknown table '" + node.table_name + "'");
      }
    }
  });

  // Outer-column references only on NL inner sides (mirrors the
  // FinalizePlan gate so hand-assembled Plan structs are covered too).
  struct OuterWalk {
    ValidationReport* report;
    void Walk(const PlanNode& node, bool outer_available) {
      auto check = [&](const Expr* e, const char* what) {
        if (e != nullptr && !outer_available && e->ContainsOuterColumn()) {
          report->Add("plan.outer_binding", node.id, -1,
                      std::string(what) +
                          " references an outer column outside a Nested "
                          "Loops inner side");
        }
      };
      check(node.seek_lo.get(), "seek bound");
      check(node.seek_hi.get(), "seek bound");
      check(node.pushed_predicate.get(), "pushed predicate");
      check(node.predicate.get(), "predicate");
      for (const auto& p : node.projections) check(p.get(), "projection");
      for (size_t i = 0; i < node.children.size(); ++i) {
        Walk(*node.children[i],
             outer_available ||
                 (node.type == OpType::kNestedLoopJoin && i == 1));
      }
    }
  };
  OuterWalk{report}.Walk(*plan.root, false);
}

void PlanValidator::CheckAnnotations(const Plan& plan,
                                     ValidationReport* report) const {
  plan.root->Visit([&](const PlanNode& node) {
    if (!FiniteNonNegative(node.est_rows)) {
      report->Add("plan.est_rows", node.id, -1,
                  StringF("estimated rows %g not finite/non-negative",
                          node.est_rows));
    }
    if (!FiniteNonNegative(node.est_cpu_ms)) {
      report->Add("plan.est_cpu", node.id, -1,
                  StringF("estimated CPU %g not finite/non-negative",
                          node.est_cpu_ms));
    }
    if (!FiniteNonNegative(node.est_io_ms)) {
      report->Add("plan.est_io", node.id, -1,
                  StringF("estimated I/O %g not finite/non-negative",
                          node.est_io_ms));
    }
    if (!FiniteNonNegative(node.est_rebinds)) {
      report->Add("plan.est_rebinds", node.id, -1,
                  StringF("estimated rebinds %g not finite/non-negative",
                          node.est_rebinds));
    }
  });
}

void PlanValidator::CheckPipelines(const Plan& plan,
                                   const PlanAnalysis& analysis,
                                   ValidationReport* report) const {
  const int n = plan.size();
  const int num_pipelines = analysis.pipeline_count();

  if (static_cast<int>(analysis.pipeline_of_node.size()) != n) {
    report->Add("pipeline.map_size", -1, -1,
                StringF("pipeline_of_node has %zu entries for %d nodes",
                        analysis.pipeline_of_node.size(), n));
    return;
  }

  // Partition: membership lists are disjoint, cover the plan, and agree
  // with the node -> pipeline map.
  std::vector<int> membership(static_cast<size_t>(n), -1);
  for (const PipelineInfo& p : analysis.pipelines) {
    for (int id : p.nodes) {
      if (id < 0 || id >= n) {
        report->Add("pipeline.member_range", id, p.id, "member id invalid");
        continue;
      }
      if (membership[id] != -1) {
        report->Add("pipeline.partition", id, p.id,
                    StringF("node also in pipeline %d", membership[id]));
      }
      membership[id] = p.id;
      if (analysis.pipeline_of_node[id] != p.id) {
        report->Add("pipeline.map_mismatch", id, p.id,
                    StringF("pipeline_of_node says %d",
                            analysis.pipeline_of_node[id]));
      }
    }
  }
  for (int id = 0; id < n; ++id) {
    if (membership[id] == -1) {
      report->Add("pipeline.coverage", id, -1,
                  "node belongs to no pipeline");
    }
  }

  // Parent edges, for boundary checks below.
  std::vector<int> parent(static_cast<size_t>(n), -1);
  plan.root->Visit([&](const PlanNode& node) {
    for (const auto& c : node.children) parent[c->id] = node.id;
  });

  for (const PipelineInfo& p : analysis.pipelines) {
    // §3: every pipeline needs at least one standard driver — progress of a
    // driverless pipeline would be undefined (0/0).
    if (p.driver_nodes.empty()) {
      report->Add("pipeline.driver", -1, p.id,
                  "pipeline has no standard driver node");
    }
    if (p.root_node < 0 || p.root_node >= n ||
        analysis.pipeline_of_node[p.root_node] != p.id) {
      report->Add("pipeline.root", p.root_node, p.id,
                  "root_node not a member of its own pipeline");
    }
    auto check_driver = [&](int d, const char* kind) {
      if (d < 0 || d >= n || analysis.pipeline_of_node[d] != p.id) {
        report->Add("pipeline.driver_member", d, p.id,
                    std::string(kind) + " driver not in pipeline");
        return;
      }
      for (const auto& c : plan.node(d).children) {
        if (analysis.pipeline_of_node[c->id] == p.id) {
          report->Add("pipeline.driver_source", d, p.id,
                      std::string(kind) +
                          " driver has a same-pipeline child (not a source)");
        }
      }
    };
    for (int d : p.driver_nodes) check_driver(d, "standard");
    for (int d : p.inner_driver_nodes) check_driver(d, "inner");

    // child_pipelines must be exactly the pipelines whose root's parent
    // edge leaves this pipeline.
    for (int c : analysis.pipelines[p.id].child_pipelines) {
      if (c < 0 || c >= num_pipelines) {
        report->Add("pipeline.child_range", -1, p.id,
                    StringF("child pipeline %d out of range", c));
        continue;
      }
      const int child_root = analysis.pipelines[c].root_node;
      if (parent[child_root] < 0 ||
          analysis.pipeline_of_node[parent[child_root]] != p.id) {
        report->Add("pipeline.child_link", child_root, p.id,
                    StringF("child pipeline %d's root is not below this "
                            "pipeline",
                            c));
      }
    }
  }

  // Blocking edges and pipeline boundaries coincide.
  plan.root->Visit([&](const PlanNode& node) {
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode& child = *node.children[i];
      const bool blocking = IsBlockingEdge(node, i);
      const bool boundary = analysis.pipeline_of_node[node.id] !=
                            analysis.pipeline_of_node[child.id];
      if (blocking != boundary) {
        report->Add("pipeline.blocking_edge", node.id, -1,
                    StringF("edge to child %d: IsBlockingEdge=%d but "
                            "pipeline boundary=%d",
                            child.id, blocking ? 1 : 0, boundary ? 1 : 0));
      }
      if (boundary &&
          analysis.pipelines[analysis.pipeline_of_node[child.id]].root_node !=
              child.id) {
        report->Add("pipeline.boundary_root", child.id, -1,
                    "blocked child is not the root of its pipeline");
      }
    }
  });

  // NL-inner bookkeeping.
  for (int id = 0; id < n; ++id) {
    const bool inner = analysis.on_nlj_inner_side[id];
    const int nlj = analysis.enclosing_nlj[id];
    if (inner != (nlj >= 0)) {
      report->Add("pipeline.nlj_flags", id, -1,
                  "on_nlj_inner_side and enclosing_nlj disagree");
      continue;
    }
    if (nlj >= 0) {
      if (nlj >= n || plan.node(nlj).type != OpType::kNestedLoopJoin) {
        report->Add("pipeline.nlj_ref", id, -1,
                    StringF("enclosing_nlj %d is not a Nested Loops join",
                            nlj));
      } else if (analysis.pipeline_of_node[nlj] !=
                 analysis.pipeline_of_node[id]) {
        report->Add("pipeline.nlj_pipeline", id, -1,
                    "enclosing NL join lies in a different pipeline");
      }
    }
  }
}

ValidationReport PlanValidator::Validate(const Plan& plan) const {
  ValidationReport report;
  CheckStructure(plan, &report);
  if (plan.root != nullptr) CheckAnnotations(plan, &report);
  return report;
}

ValidationReport PlanValidator::Validate(const Plan& plan,
                                         const PlanAnalysis& analysis) const {
  ValidationReport report = Validate(plan);
  if (plan.root != nullptr) CheckPipelines(plan, analysis, &report);
  return report;
}

}  // namespace lqs
