#include "sched/graph.h"

#include <algorithm>

#include "sched/checkpoint_codec.h"
#include "support/binio.h"

namespace cac::sched::graph {

using support::BinError;
using support::BinReader;
using support::BinWriter;

namespace {

/// Is the instruction register-local (touches only its own warp's
/// state)?  Such steps commute with every other warp's steps and never
/// disable them, so {that step} is a persistent set.
bool register_local(const ptx::Instr& i) {
  return std::holds_alternative<ptx::INop>(i) ||
         std::holds_alternative<ptx::IBop>(i) ||
         std::holds_alternative<ptx::ITop>(i) ||
         std::holds_alternative<ptx::IUop>(i) ||
         std::holds_alternative<ptx::IMov>(i) ||
         std::holds_alternative<ptx::ISetp>(i) ||
         std::holds_alternative<ptx::ISelp>(i) ||
         std::holds_alternative<ptx::IBra>(i) ||
         std::holds_alternative<ptx::IPBra>(i) ||
         std::holds_alternative<ptx::ISync>(i);
}

}  // namespace

std::vector<sem::Choice> branch_choices(const ptx::Program& prg,
                                        const sem::Grid& g,
                                        const ExploreOptions& opts) {
  std::vector<sem::Choice> eligible = sem::eligible_choices(prg, g);
  if (!opts.partial_order_reduction) return eligible;
  // The first ExecWarp choice whose next instruction satisfies `pred`.
  const auto first_exec = [&](const auto& pred) {
    return std::find_if(eligible.begin(), eligible.end(),
                        [&](const sem::Choice& c) {
                          return c.kind == sem::Choice::Kind::ExecWarp &&
                                 pred(g.blocks[c.block].warps[c.warp]->pc());
                        });
  };
  const std::vector<std::uint32_t>& indep = opts.por_independent_pcs;
  auto it = first_exec(
      [&](std::uint32_t pc) { return register_local(prg.fetch(pc)); });
  if (it == eligible.end() && !indep.empty()) {
    it = first_exec([&](std::uint32_t pc) {
      return std::binary_search(indep.begin(), indep.end(), pc);
    });
  }
  if (it != eligible.end()) eligible.assign(1, sem::Choice(*it));
  return eligible;
}

// --- codec -----------------------------------------------------------

void encode_nodes(BinWriter& w, const std::vector<Node>& nodes,
                  KeyWidth kw) {
  w.u64(nodes.size());
  for (const Node& n : nodes) {
    w.u32(n.local);
    w.u8(static_cast<std::uint8_t>((n.processed ? 1 : 0) |
                                   (n.terminal ? 2 : 0) |
                                   (n.stuck ? 4 : 0)));
    w.str(n.stuck_reason);
    w.u64(n.edges.size());
    for (const Edge& e : n.edges) {
      codec::encode_choice(w, e.choice);
      w.u8(static_cast<std::uint8_t>((e.faulted ? 1 : 0) |
                                     (e.overflow ? 2 : 0)));
      if (kw == KeyWidth::k32) {
        w.u32(static_cast<std::uint32_t>(e.child.v));
      } else {
        w.u64(e.child.v);
      }
      w.str(e.fault);
    }
  }
}

std::vector<Node> decode_nodes(BinReader& r, KeyWidth kw) {
  const std::uint64_t nn = r.count();
  std::vector<Node> nodes;
  nodes.reserve(nn);
  for (std::uint64_t i = 0; i < nn; ++i) {
    Node& n = nodes.emplace_back();
    n.local = r.u32();
    const std::uint8_t flags = r.u8();
    if (flags > 7) throw BinError("bad node flags");
    n.processed = (flags & 1) != 0;
    n.terminal = (flags & 2) != 0;
    n.stuck = (flags & 4) != 0;
    n.stuck_reason = r.str();
    const std::uint64_t ne = r.count();
    n.edges.reserve(ne);
    for (std::uint64_t j = 0; j < ne; ++j) {
      Edge& e = n.edges.emplace_back();
      e.choice = codec::decode_choice(r);
      const std::uint8_t eflags = r.u8();
      if (eflags > 3) throw BinError("bad edge flags");
      e.faulted = (eflags & 1) != 0;
      e.overflow = (eflags & 2) != 0;
      if (kw == KeyWidth::k32) {
        const std::uint32_t id = r.u32();
        if (id != StateId::kInvalid) e.child = Key::make(0, id);
      } else {
        e.child = Key{r.u64()};
      }
      e.fault = r.str();
    }
  }
  return nodes;
}

void encode_frontier(BinWriter& w, const Frontier& f) {
  w.u64(f.size());
  for (const auto& [local, depth] : f) {
    w.u32(local);
    w.u64(depth);
  }
}

Frontier decode_frontier(BinReader& r) {
  const std::uint64_t n = r.count(12);  // u32 local + u64 depth
  Frontier f;
  f.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t local = r.u32();
    f.emplace_back(local, r.u64());
  }
  return f;
}

// --- replay ----------------------------------------------------------

Replay replay(Node* root, const ExploreOptions& opts,
              ExploreResult::Limit stop_reason) {
  using Limit = ExploreResult::Limit;
  Replay out;
  ExploreResult& result = out.result;
  result.min_steps_to_termination = ~0ull;

  struct Frame {
    Node* node;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  std::vector<sem::Choice> path;
  bool limits_hit = false;

  auto hit_limit = [&](Limit l) {
    limits_hit = true;
    if (result.limit_hit == Limit::None) result.limit_hit = l;
  };

  auto add_violation = [&](Violation::Kind kind, std::string msg) {
    result.violations.push_back({kind, std::move(msg), path});
  };

  auto depth_exceeded = [&] {
    hit_limit(Limit::MaxDepth);
    add_violation(Violation::Kind::DepthExceeded,
                  "path exceeded the exploration depth bound");
  };

  // The serial engine's enter(): returns true if a frame was pushed.
  auto enter = [&](Node* nd) -> bool {
    if (nd == nullptr) {  // overflow edge: the child was dropped
      hit_limit(Limit::MaxStates);
      return false;
    }
    if (nd->color == Node::Color::OnStack) {
      add_violation(Violation::Kind::Cycle,
                    "schedule revisits an earlier state: a scheduler can "
                    "loop forever");
      return false;
    }
    if (nd->color == Node::Color::Done) return false;
    if (result.states_visited >= opts.max_states) {
      hit_limit(Limit::MaxStates);
      return false;
    }
    ++result.states_visited;
    nd->color = Node::Color::Done;

    if (nd->terminal) {
      result.min_steps_to_termination =
          std::min<std::uint64_t>(result.min_steps_to_termination,
                                  path.size());
      result.max_steps_to_termination =
          std::max<std::uint64_t>(result.max_steps_to_termination,
                                  path.size());
      out.finals.push_back(nd);
      return false;
    }
    if (nd->stuck) {
      add_violation(Violation::Kind::Stuck, nd->stuck_reason);
      return false;
    }
    if (!nd->processed) {
      if (stop_reason != Limit::None) {
        // Budget-stopped run: this node sits on the unexpanded
        // frontier, not past the depth bound.
        hit_limit(stop_reason);
      } else if (path.size() >= opts.max_depth) {
        depth_exceeded();  // exactly the serial DepthExceeded event
      } else {
        // Depth-gated when a longer path reached it first during the
        // build: the run is only flagged non-exhaustive.
        hit_limit(Limit::MaxDepth);
      }
      return false;
    }
    if (path.size() >= opts.max_depth) {
      depth_exceeded();
      return false;
    }
    nd->color = Node::Color::OnStack;
    stack.push_back(Frame{nd, 0});
    return true;
  };

  enter(root);

  auto should_stop = [&] {
    return opts.stop_at_first_violation && !result.violations.empty();
  };

  while (!stack.empty() && !should_stop()) {
    Frame& top = stack.back();
    if (top.next >= top.node->edges.size()) {
      top.node->color = Node::Color::Done;
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const Edge& e = top.node->edges[top.next++];
    ++result.transitions;
    path.push_back(e.choice);
    if (e.faulted) {
      add_violation(Violation::Kind::Fault, e.fault);
      path.pop_back();
      continue;
    }
    if (!enter(e.overflow ? nullptr : e.to)) path.pop_back();
  }

  if (result.min_steps_to_termination == ~0ull) {
    result.min_steps_to_termination = 0;
  }
  result.exhaustive = !limits_hit && stack.empty();
  return out;
}

}  // namespace cac::sched::graph
