#include "ir/validate.hpp"

#include <set>
#include <sstream>

namespace a64fxcc::ir {

namespace {

class Validator {
 public:
  explicit Validator(const Kernel& k) : k_(k) {
    for (const auto& p : k.params()) params_.insert(p.id);
  }

  std::vector<Diagnostic> run() {
    // Tensor declarations.
    const auto env = k_.param_env();
    std::set<std::string> tensor_names;
    for (const auto& t : k_.tensors()) {
      if (!tensor_names.insert(t.name).second)
        error("duplicate tensor name '" + t.name + "'");
      for (std::size_t d = 0; d < t.shape.size(); ++d) {
        for (const auto& [v, c] : t.shape[d].terms()) {
          (void)c;
          if (!params_.count(v))
            error("tensor '" + t.name + "' dimension " + std::to_string(d) +
                  " uses a non-parameter variable");
        }
        if (t.shape[d].evaluate(env) <= 0)
          error("tensor '" + t.name + "' dimension " + std::to_string(d) +
                " evaluates to a non-positive size");
      }
    }
    // Loop tree.
    for (const auto& r : k_.roots()) node(*r);
    // A kernel that does nothing models as 0 s, and a 0 s baseline
    // turns every gain ratio into a division by zero.
    if (stmts_ == 0) error("kernel '" + k_.name() + "' has no statements");
    // Dead outputs: output-only tensors that are never written.
    for (const auto& t : k_.tensors()) {
      if (!t.is_input && !written_.count(t.id))
        warn("output tensor '" + t.name + "' is never written");
    }
    return std::move(diags_);
  }

 private:
  void node(const Node& n) {
    if (n.is_stmt()) {
      stmt(n.stmt);
      return;
    }
    const Loop& l = n.loop;
    if (l.step == 0) error("loop has zero step");
    if (l.var < 0 || l.var >= k_.num_vars()) {
      error("loop variable id out of range");
      return;
    }
    if (params_.count(l.var))
      error("loop reuses parameter '" + k_.var_name(l.var) + "' as its variable");
    if (in_scope_.count(l.var))
      error("loop variable '" + k_.var_name(l.var) +
            "' shadows an enclosing loop");
    affine(l.lower, "loop bound");
    affine(l.upper, "loop bound");
    if (l.upper2.has_value()) affine(*l.upper2, "loop bound");
    if (l.annot.vector_width < 1 || l.annot.unroll < 1)
      error("loop annotation with non-positive factor");
    in_scope_.insert(l.var);
    for (const auto& c : l.body) node(*c);
    in_scope_.erase(l.var);
  }

  void stmt(const Stmt& s) {
    ++stmts_;
    access(s.target, /*write=*/true);
    expr(*s.value);
  }

  void access(const Access& a, bool write) {
    if (a.tensor < 0 ||
        static_cast<std::size_t>(a.tensor) >= k_.tensors().size()) {
      error("access to undeclared tensor id " + std::to_string(a.tensor));
      return;
    }
    const auto& t = k_.tensor(a.tensor);
    if (a.index.size() != t.shape.size())
      error("tensor '" + t.name + "' accessed with " +
            std::to_string(a.index.size()) + " subscripts but has rank " +
            std::to_string(t.shape.size()));
    for (const auto& ix : a.index) {
      affine(ix.affine, "subscript of '" + t.name + "'");
      if (ix.indirect) expr(*ix.indirect);
    }
    if (write) written_.insert(a.tensor);
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Var:
        if (!params_.count(e.var) && !in_scope_.count(e.var))
          error("expression uses variable '" + name_of(e.var) +
                "' outside its loop");
        break;
      case ExprKind::Load: access(e.access, /*write=*/false); break;
      default: break;
    }
    if (e.a) expr(*e.a);
    if (e.b) expr(*e.b);
    if (e.c) expr(*e.c);
  }

  void affine(const AffineExpr& a, const std::string& where) {
    for (const auto& [v, c] : a.terms()) {
      (void)c;
      if (!params_.count(v) && !in_scope_.count(v))
        error(where + " uses variable '" + name_of(v) +
              "' outside its loop");
    }
  }

  std::string name_of(VarId v) const {
    return v >= 0 && v < k_.num_vars() ? k_.var_name(v)
                                       : "v" + std::to_string(v);
  }

  void error(std::string m) {
    diags_.push_back({Diagnostic::Severity::Error, std::move(m)});
  }
  void warn(std::string m) {
    diags_.push_back({Diagnostic::Severity::Warning, std::move(m)});
  }

  const Kernel& k_;
  std::set<VarId> params_;
  std::set<VarId> in_scope_;
  std::set<TensorId> written_;
  std::size_t stmts_ = 0;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> validate(const Kernel& k) { return Validator(k).run(); }

bool is_valid(const Kernel& k) {
  for (const auto& d : validate(k))
    if (d.severity == Diagnostic::Severity::Error) return false;
  return true;
}

std::string to_string(const std::vector<Diagnostic>& ds) {
  std::ostringstream os;
  for (const auto& d : ds)
    os << (d.severity == Diagnostic::Severity::Error ? "error: " : "warning: ")
       << d.message << "\n";
  return os.str();
}

}  // namespace a64fxcc::ir
