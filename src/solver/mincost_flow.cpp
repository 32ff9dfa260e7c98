#include "solver/mincost_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace vdx::solver {

namespace {

constexpr std::int8_t kLower = 1;
constexpr std::int8_t kTree = 0;
constexpr std::int8_t kUpper = -1;
constexpr std::int64_t kInfCap = std::numeric_limits<std::int64_t>::max();

// Smallest double above every int64: llround() is defined below it.
constexpr double kInt64Limit = 0x1p63;

}  // namespace

NetworkSimplex::NetworkSimplex(std::vector<std::int64_t> supply) : supply_(std::move(supply)) {
  std::int64_t sum = 0;
  bool overflow = false;
  for (const std::int64_t s : supply_) {
    overflow |= s < -kInfCap || __builtin_add_overflow(sum, s, &sum);  // -s must fit too
  }
  if (overflow || sum != 0) {
    throw std::invalid_argument{"NetworkSimplex: supplies must sum to 0 within int64"};
  }
  const auto root = static_cast<std::int32_t>(supply_.size());
  for (std::int32_t u = 0; u < root; ++u) push_arc(u, root, 0.0, kInfCap);  // artificial
}

NetworkSimplex::ArcId NetworkSimplex::add_arc(NodeId from, NodeId to, std::int64_t capacity,
                                              double cost) {
  if (from >= supply_.size() || to >= supply_.size() || capacity < 0 ||
      capacity == kInfCap || !std::isfinite(cost)) {
    throw std::invalid_argument{"NetworkSimplex::add_arc: unknown node, bad capacity or cost"};
  }
  push_arc(static_cast<std::int32_t>(from), static_cast<std::int32_t>(to), cost, capacity);
  return static_cast<ArcId>(cost_.size() - supply_.size() - 1);
}

void NetworkSimplex::push_arc(std::int32_t from, std::int32_t to, double cost,
                              std::int64_t capacity) {
  source_.push_back(from);
  target_.push_back(to);
  cost_.push_back(cost);
  state_.push_back(kLower);
  cap_.push_back(capacity);
  flow_.push_back(0);
}

std::int64_t NetworkSimplex::flow(ArcId arc) const {
  const std::size_t e = supply_.size() + arc;
  if (e >= flow_.size()) throw std::out_of_range{"NetworkSimplex::flow: bad arc"};
  return flow_[e];
}

void NetworkSimplex::solve(const Basis& start) {
  load_basis(start);
  run_pivots();  // the start is feasible, so the optimum is too
}

// Checks `start` into the tree arrays and the excess_ scratch, and touches
// flow_ only once every check has passed.
void NetworkSimplex::load_basis(const Basis& start) {
  const auto reject = [](const char* why) {
    throw std::invalid_argument{std::string{"NetworkSimplex::solve: "} + why};
  };
  const auto n = static_cast<std::int32_t>(supply_.size());
  const std::size_t arcs = cost_.size() - supply_.size();
  if (start.parent_arc.size() != supply_.size()) {
    reject("the basis needs one parent arc per node");
  }
  const std::int32_t root = n;
  const auto tree_nodes = static_cast<std::size_t>(n) + 1;
  parent_.resize(tree_nodes);
  pred_.resize(tree_nodes);
  pred_up_.resize(tree_nodes);
  thread_.resize(tree_nodes);
  rev_thread_.resize(tree_nodes);
  std::fill(state_.begin(), state_.end(), kLower);
  for (std::int32_t u = 0; u < n; ++u) {
    const ArcId arc = start.parent_arc[u];
    std::int32_t e = u;  // the artificial arc, which points at the root
    parent_[u] = root;
    pred_up_[u] = 1;
    if (arc != kRoot) {
      if (arc >= arcs) reject("unknown parent arc");
      e = n + static_cast<std::int32_t>(arc);
      if (source_[e] == u) {
        parent_[u] = target_[e];
      } else if (target_[e] == u) {
        parent_[u] = source_[e];
        pred_up_[u] = -1;
      } else {
        reject("a parent arc does not touch its node");
      }
    }
    pred_[u] = e;
    state_[e] = kTree;
  }
  parent_[root] = -1;
  for (const ArcId arc : start.at_upper) {
    if (arc >= arcs || state_[n + arc] != kLower) {
      reject("at_upper names an unknown, tree or repeated arc");
    }
    state_[n + arc] = kUpper;
  }

  // Thread the tree in preorder from the root. Every node has one parent,
  // so the nodes a walk down from the root misses sit on a cycle.
  child_begin_.assign(tree_nodes + 1, 0);
  for (std::int32_t u = 0; u < n; ++u) ++child_begin_[parent_[u] + 1];
  for (std::size_t v = 1; v <= tree_nodes; ++v) child_begin_[v] += child_begin_[v - 1];
  children_.resize(supply_.size());
  succ_num_.assign(child_begin_.begin(), child_begin_.end() - 1);  // fill cursors
  for (std::int32_t u = 0; u < n; ++u) children_[succ_num_[parent_[u]]++] = u;
  dirty_revs_.assign(1, root);  // DFS stack
  std::size_t reached = 0;
  std::int32_t prev = root;
  while (!dirty_revs_.empty()) {
    const std::int32_t u = dirty_revs_.back();
    dirty_revs_.pop_back();
    thread_[prev] = u;
    rev_thread_[u] = prev;
    prev = u;
    ++reached;
    for (std::int32_t c = child_begin_[u]; c < child_begin_[u + 1]; ++c) {
      dirty_revs_.push_back(children_[c]);
    }
  }
  if (reached != tree_nodes) reject("the basis does not span the nodes");
  thread_[prev] = root;
  rev_thread_[root] = prev;

  // Leaves first: each tree arc carries its subtree's excess to the parent.
  excess_.assign(supply_.begin(), supply_.end());
  excess_.push_back(0);
  bool overflow = false;
  for (const ArcId arc : start.at_upper) {
    const std::int32_t e = n + static_cast<std::int32_t>(arc);
    overflow |= __builtin_sub_overflow(excess_[source_[e]], cap_[e], &excess_[source_[e]]);
    overflow |= __builtin_add_overflow(excess_[target_[e]], cap_[e], &excess_[target_[e]]);
  }
  succ_num_.assign(tree_nodes, 1);
  last_succ_.assign(tree_nodes, -1);
  for (std::int32_t u = rev_thread_[root]; u != root; u = rev_thread_[u]) {
    const std::int32_t p = parent_[u];
    if (overflow || excess_[u] == INT64_MIN) reject("a tree arc's flow leaves its bounds");
    const std::int64_t f = pred_up_[u] * excess_[u];
    if (f < 0 || f > cap_[pred_[u]]) reject("a tree arc's flow leaves its bounds");
    if (f == (pred_up_[u] > 0 ? cap_[pred_[u]] : 0)) {
      reject("the basis is not strongly feasible");
    }
    overflow |= __builtin_add_overflow(excess_[p], excess_[u], &excess_[p]);
    succ_num_[p] += succ_num_[u];
    if (last_succ_[u] < 0) last_succ_[u] = u;
    if (last_succ_[p] < 0) last_succ_[p] = last_succ_[u];
  }
  if (last_succ_[root] < 0) last_succ_[root] = root;

  std::fill(flow_.begin(), flow_.end(), 0);
  for (const ArcId arc : start.at_upper) flow_[n + arc] = cap_[n + arc];
  for (std::int32_t u = 0; u < n; ++u) flow_[pred_[u]] = pred_up_[u] * excess_[u];
  pi_.resize(tree_nodes);
  pi_[root] = 0.0;
  for (std::int32_t u = thread_[root]; u != root; u = thread_[u]) {
    pi_[u] = pi_[parent_[u]] - pred_up_[u] * cost_[pred_[u]];
  }
}

void NetworkSimplex::run_pivots() {
  const auto m = static_cast<std::int32_t>(cost_.size() - supply_.size());
  block_size_ = std::max(10, static_cast<std::int32_t>(std::sqrt(static_cast<double>(m))));
  next_arc_ = static_cast<std::int32_t>(supply_.size());
  pivots_ = 0;
  while (find_entering_arc()) {
    ++pivots_;
    const bool change = find_leaving_arc();
    change_flow(change);
    if (change) update_tree();
  }
}

// Block search: scan on from where the last search stopped and take the most
// negative reduced cost within the first block that has one.
bool NetworkSimplex::find_entering_arc() {
  const auto first = static_cast<std::int32_t>(supply_.size());
  const auto end = static_cast<std::int32_t>(cost_.size());
  double best = -kEnterThreshold;
  bool found = false;
  std::int32_t count = block_size_;
  std::int32_t e = next_arc_;
  for (std::int32_t scanned = first; scanned < end; ++scanned) {
    const double reduced = state_[e] * (cost_[e] + pi_[source_[e]] - pi_[target_[e]]);
    if (reduced < best) {
      best = reduced;
      in_arc_ = e;
      found = true;
    }
    if (--count == 0) {
      if (found) {
        next_arc_ = e;
        return true;
      }
      count = block_size_;
    }
    if (++e == end) e = first;
  }
  return found;
}

// Finds the apex (join) of the cycle the entering arc closes by climbing from
// the endpoint with the smaller subtree, then applies Cunningham's rule: walk
// the cycle in flow direction, first the path against the tree (from `first`
// up to the apex), then the one with it (from `second`); the last blocking
// arc met wins, which keeps the tree strongly feasible. Returns false when
// the entering arc blocks itself.
bool NetworkSimplex::find_leaving_arc() {
  std::int32_t a = source_[in_arc_];
  std::int32_t b = target_[in_arc_];
  while (a != b) {
    if (succ_num_[a] < succ_num_[b]) {
      a = parent_[a];
    } else {
      b = parent_[b];
    }
  }
  join_ = a;
  const bool lower = state_[in_arc_] == kLower;
  const std::int32_t first = lower ? source_[in_arc_] : target_[in_arc_];
  const std::int32_t second = lower ? target_[in_arc_] : source_[in_arc_];
  delta_ = cap_[in_arc_];
  int result = 0;
  // Flow runs down the tree on the first path and up it on the second.
  const auto scan = [&](std::int32_t start, std::int8_t flow_up, int path) {
    for (std::int32_t u = start; u != join_; u = parent_[u]) {
      const std::int32_t e = pred_[u];
      const std::int64_t room = pred_up_[u] == flow_up ? cap_[e] - flow_[e] : flow_[e];
      if (room < delta_ || (path == 2 && room == delta_)) {
        delta_ = room;
        u_out_ = u;
        result = path;
      }
    }
  };
  scan(first, -1, 1);
  scan(second, 1, 2);
  u_in_ = result == 1 ? first : second;
  v_in_ = result == 1 ? second : first;
  return result != 0;
}

void NetworkSimplex::change_flow(bool change) {
  if (delta_ > 0) {
    const std::int64_t val = state_[in_arc_] * delta_;
    flow_[in_arc_] += val;
    for (std::int32_t u = source_[in_arc_]; u != join_; u = parent_[u]) {
      flow_[pred_[u]] -= pred_up_[u] * val;
    }
    for (std::int32_t u = target_[in_arc_]; u != join_; u = parent_[u]) {
      flow_[pred_[u]] += pred_up_[u] * val;
    }
  }
  // The entering arc joins the tree, or just flips bound when it blocks itself.
  state_[in_arc_] = change ? kTree : static_cast<std::int8_t>(-state_[in_arc_]);
  if (change) state_[pred_[u_out_]] = flow_[pred_[u_out_]] == 0 ? kLower : kUpper;
}

// Re-hangs the subtree cut off by the leaving arc below v_in: reverses the
// stem from u_out to u_in, splices the thread, repairs last_succ and
// succ_num on both paths to the apex, and shifts the moved subtree's
// potentials so the entering arc prices to zero.
void NetworkSimplex::update_tree() {
  const std::int32_t old_rev_thread = rev_thread_[u_out_];
  const std::int32_t old_succ_num = succ_num_[u_out_];
  const std::int32_t old_last_succ = last_succ_[u_out_];
  const std::int32_t v_out = parent_[u_out_];
  const auto link = [this](std::int32_t before, std::int32_t after) {
    thread_[before] = after;
    rev_thread_[after] = before;
  };

  // When old_rev_thread is v_in (so join is v_out) the thread continues
  // after the moved subtree, not after v_in.
  const std::int32_t thread_continue =
      old_rev_thread == v_in_ ? thread_[old_last_succ] : thread_[v_in_];

  // Walk the stem from u_in up to u_out (often the same node): re-parent each
  // stem node and move its remaining subtree into the thread behind the
  // previous one.
  std::int32_t stem = u_in_;
  std::int32_t par_stem = v_in_;
  std::int32_t last = last_succ_[u_in_];
  std::int32_t after = thread_[last];
  thread_[v_in_] = u_in_;
  dirty_revs_.assign(1, v_in_);
  while (stem != u_out_) {
    const std::int32_t next_stem = parent_[stem];
    thread_[last] = next_stem;
    dirty_revs_.push_back(last);
    link(rev_thread_[stem], after);
    parent_[stem] = par_stem;
    par_stem = stem;
    stem = next_stem;
    last = last_succ_[stem] == last_succ_[par_stem] ? rev_thread_[par_stem] : last_succ_[stem];
    after = thread_[last];
  }
  parent_[u_out_] = par_stem;
  link(last, thread_continue);
  last_succ_[u_out_] = last;
  if (old_rev_thread != v_in_) link(old_rev_thread, after);
  for (const std::int32_t u : dirty_revs_) rev_thread_[thread_[u]] = u;

  // Stem nodes take their old parent's tree arc, reversed.
  std::int32_t moved = 0;
  for (std::int32_t u = u_out_, p = parent_[u]; u != u_in_; u = p, p = parent_[u]) {
    pred_[u] = pred_[p];
    pred_up_[u] = static_cast<std::int8_t>(-pred_up_[p]);
    moved += succ_num_[u] - succ_num_[p];
    succ_num_[u] = moved;
    last_succ_[p] = last;
  }
  succ_num_[u_in_] = old_succ_num;
  pred_[u_in_] = in_arc_;
  pred_up_[u_in_] = u_in_ == source_[in_arc_] ? 1 : -1;

  const std::int32_t up_limit_out = last_succ_[join_] == v_in_ ? join_ : -1;
  const std::int32_t last_succ_out = last_succ_[u_out_];
  for (std::int32_t u = v_in_; u != -1 && last_succ_[u] == v_in_; u = parent_[u]) {
    last_succ_[u] = last_succ_out;
  }
  const bool spliced_out = join_ != old_rev_thread && v_in_ != old_rev_thread;
  if (spliced_out || last_succ_out != old_last_succ) {
    const std::int32_t replacement = spliced_out ? old_rev_thread : last_succ_out;
    for (std::int32_t u = v_out; u != up_limit_out && last_succ_[u] == old_last_succ;
         u = parent_[u]) {
      last_succ_[u] = replacement;
    }
  }
  for (std::int32_t u = v_in_; u != join_; u = parent_[u]) succ_num_[u] += old_succ_num;
  for (std::int32_t u = v_out; u != join_; u = parent_[u]) succ_num_[u] -= old_succ_num;

  const double sigma = pi_[v_in_] - pi_[u_in_] - pred_up_[u_in_] * cost_[in_arc_];
  const std::int32_t end = thread_[last_succ_[u_in_]];
  for (std::int32_t u = u_in_; u != end; u = thread_[u]) pi_[u] += sigma;
}

AssignmentNetwork build_assignment_network(const AssignmentProblem& problem,
                                           double overflow_penalty) {
  problem.validate();
  const std::optional<std::vector<double>> group_demand = uniform_group_demand(problem);
  if (!group_demand) {
    throw std::invalid_argument{
        "solve_assignment_mcf: options of a group must share unit_demand"};
  }
  constexpr auto scale = static_cast<double>(kDemandScale);
  const std::size_t groups = problem.group_count();
  const std::size_t resources = problem.resource_count();
  using ArcId = NetworkSimplex::ArcId;

  // Nodes: groups, then resources, then the sink. Each group supplies its
  // scaled total demand.
  std::vector<std::int64_t> supply(groups + resources + 1, 0);
  std::int64_t total = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (problem.group_counts[g] <= 0.0) continue;
    const double d = (*group_demand)[g] > 0.0 ? (*group_demand)[g] : 1.0;
    const double units = problem.group_counts[g] * d * scale;
    const bool fits = units < kInt64Limit;
    if (fits) supply[g] = std::max<std::int64_t>(1, std::llround(units));  // keep tiny groups
    if (!fits || __builtin_add_overflow(total, supply[g], &total)) {
      throw std::invalid_argument{"solve_assignment_mcf: demand of group " +
                                  std::to_string(g) + " overflows int64 flow units"};
    }
  }
  supply.back() = -total;  // the sink absorbs it all
  AssignmentNetwork out{NetworkSimplex{supply}, {}};
  NetworkSimplex& network = out.network;
  NetworkSimplex::Basis& crash = out.crash;
  crash.parent_arc.assign(supply.size(), NetworkSimplex::kRoot);
  const auto sink = static_cast<NetworkSimplex::NodeId>(groups + resources);

  // Option arcs: group -> resource (or straight to sink when uncapacitated).
  // One client corresponds to d * kDemandScale flow units; spreading the
  // per-client cost over them reproduces the objective exactly. Option i is
  // arc i. Nothing flows into a group, so capping its options at the total
  // rather than its own supply leaves the LP as it is, and leaves room on
  // the arc that carries the group's supply in the crash basis.
  std::vector<std::size_t> cheapest(groups, problem.options.size());
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    const auto to = o.resource == kNoResource
                        ? sink
                        : static_cast<NetworkSimplex::NodeId>(groups + o.resource);
    (void)network.add_arc(o.group, to, total, o.unit_cost / (d * scale));
    std::size_t& best = cheapest[o.group];
    if (best == problem.options.size() || o.unit_cost < problem.options[best].unit_cost) {
      best = i;
    }
  }

  // Crash basis: each group carries its whole supply on its cheapest option
  // and hangs off it; an arc that supply would fill (the group is the only
  // one with any) starts at its capacity instead, with the group on the root.
  std::vector<std::int64_t> load(resources, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t i = cheapest[g];
    if (i == problem.options.size()) continue;  // an empty group without options
    if (supply[g] < total) {
      crash.parent_arc[g] = static_cast<ArcId>(i);
    } else {
      crash.at_upper.push_back(static_cast<ArcId>(i));
    }
    const std::uint32_t r = problem.options[i].resource;
    if (r != kNoResource) load[r] += supply[g];
  }

  // Resource -> sink: a capacity arc plus an overflow arc priced at the
  // penalty (per demand unit). No flow exceeds the total supply, so capping
  // the capacity there is exact and keeps huge capacities representable.
  // A resource hangs off its capacity arc while its greedy load leaves room
  // there; otherwise that arc starts full and the overflow arc carries the
  // rest, unless the rest fills it too.
  for (std::size_t r = 0; r < resources; ++r) {
    const auto node = static_cast<NetworkSimplex::NodeId>(groups + r);
    const double units = problem.capacities[r] * scale;
    const std::int64_t capacity =
        units < kInt64Limit ? std::min<std::int64_t>(std::llround(units), total) : total;
    const ArcId cap_arc = network.add_arc(node, sink, capacity, 0.0);
    const ArcId overflow_arc = network.add_arc(node, sink, total, overflow_penalty / scale);
    if (load[r] < capacity) {
      crash.parent_arc[node] = cap_arc;
      continue;
    }
    crash.at_upper.push_back(cap_arc);
    if (load[r] - capacity < total) {
      crash.parent_arc[node] = overflow_arc;
    } else {
      crash.at_upper.push_back(overflow_arc);
    }
  }
  return out;
}

Assignment solve_assignment_mcf(const AssignmentProblem& problem,
                                double overflow_penalty) {
  AssignmentNetwork built = build_assignment_network(problem, overflow_penalty);
  built.network.solve(built.crash);

  constexpr auto scale = static_cast<double>(kDemandScale);
  std::vector<double> amounts(problem.options.size(), 0.0);
  std::vector<double> assigned(problem.group_count(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    const auto flow = built.network.flow(static_cast<NetworkSimplex::ArcId>(i));
    amounts[i] = static_cast<double>(flow) / (d * scale);
    assigned[o.group] += amounts[i];
  }
  // Scaled-supply rounding can leave group totals a hair off the true count;
  // snap them back proportionally.
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const std::uint32_t g = problem.options[i].group;
    if (assigned[g] > 0.0 && problem.group_counts[g] > 0.0) {
      amounts[i] *= problem.group_counts[g] / assigned[g];
    }
  }
  return evaluate(problem, std::move(amounts));
}

}  // namespace vdx::solver
