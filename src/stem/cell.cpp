#include "stem/cell.h"

#include <algorithm>
#include <stdexcept>

#include "stem/library.h"
#include "stem/net.h"

namespace stemcp::env {

using core::Justification;
using core::Rect;
using core::Status;
using core::Transform;
using core::Value;
using core::Variable;

const char* to_string(SignalDirection d) {
  switch (d) {
    case SignalDirection::kInput: return "input";
    case SignalDirection::kOutput: return "output";
    case SignalDirection::kInOut: return "inout";
  }
  return "?";
}

const char* to_string(Side s) {
  switch (s) {
    case Side::kLeft: return "left";
    case Side::kBottom: return "bottom";
    case Side::kRight: return "right";
    case Side::kTop: return "top";
  }
  return "?";
}

Side opposite(Side s) {
  switch (s) {
    case Side::kLeft: return Side::kRight;
    case Side::kRight: return Side::kLeft;
    case Side::kTop: return Side::kBottom;
    case Side::kBottom: return Side::kTop;
  }
  return s;
}

namespace {

core::Point side_normal(Side s) {
  switch (s) {
    case Side::kLeft: return {-1, 0};
    case Side::kRight: return {1, 0};
    case Side::kTop: return {0, 1};
    case Side::kBottom: return {0, -1};
  }
  return {0, 0};
}

Side side_from_normal(core::Point n) {
  if (n.x < 0) return Side::kLeft;
  if (n.x > 0) return Side::kRight;
  if (n.y > 0) return Side::kTop;
  return Side::kBottom;
}

Justification implicit_just(StemVariable& source) {
  return Justification::propagated(source,
                                   core::DependencyRecord::single(source));
}

}  // namespace

// ---- IoSignal ----------------------------------------------------------------

IoSignal::IoSignal(CellClass& owner, std::string name, SignalDirection dir)
    : owner_(&owner), name_(std::move(name)), direction_(dir) {
  auto& ctx = owner.context();
  const std::string path = owner.name() + "." + name_;
  bit_width_ = std::make_unique<ClassBitWidthVar>(ctx, path, "bitWidth");
  data_type_ = std::make_unique<SignalTypeVar>(ctx, path, "dataType");
  electrical_type_ =
      std::make_unique<SignalTypeVar>(ctx, path, "electricalType");
}

void IoSignal::add_pin(core::Point position, Side side) {
  pins_.push_back({name_, position, side});
}

// ---- CellInstance -------------------------------------------------------------

CellInstance::CellInstance(CellClass& cls, CellClass* parent_cell,
                           std::string name, Transform transform)
    : cls_(&cls),
      parent_cell_(parent_cell),
      name_(std::move(name)),
      transform_(transform) {
  cls_->register_instance(*this);
  bbox_ = std::make_unique<InstanceBBoxVar>(
      cls_->context(), *this, cls_->bounding_box(), qualified_name());
  // Default the placement box from the class box when already known.
  const Value& cb = cls_->bounding_box().value();
  if (cb.is_rect()) {
    bbox_->set(Value(transform_.apply(cb.as_rect())),
               implicit_just(cls_->bounding_box()));
  }
}

CellInstance::~CellInstance() { cls_->unregister_instance(*this); }

std::string CellInstance::qualified_name() const {
  const std::string where =
      parent_cell_ != nullptr ? parent_cell_->name() : "<top>";
  return where + "/" + name_;
}

void CellInstance::set_transform(Transform t) {
  if (t == transform_) return;
  transform_ = t;
  // Re-derive the default placement box unless the designer pinned one.
  const Value& cb = cls_->bounding_box().value();
  if (cb.is_rect() && !bbox_->last_set_by().is_user()) {
    bbox_->set(Value(transform_.apply(cb.as_rect())),
               implicit_just(cls_->bounding_box()));
  } else if (parent_cell_ != nullptr) {
    parent_cell_->structure_edited();
  }
}

InstanceBitWidthVar& CellInstance::bit_width(const std::string& signal) {
  auto it = bit_widths_.find(signal);
  if (it != bit_widths_.end()) return *it->second;
  IoSignal* sig = cls_->find_signal(signal);
  if (sig == nullptr) {
    throw std::out_of_range("no signal '" + signal + "' on " + cls_->name());
  }
  auto var = std::make_unique<InstanceBitWidthVar>(
      cls_->context(), qualified_name(), "bitWidth(" + signal + ")",
      &sig->bit_width());
  InstanceBitWidthVar& ref = *var;
  bit_widths_.emplace(signal, std::move(var));
  if (sig->bit_width().value().is_int()) {
    ref.set(sig->bit_width().value(), implicit_just(sig->bit_width()));
  }
  return ref;
}

InstanceBitWidthVar* CellInstance::find_bit_width(
    std::string_view signal) const {
  auto it = bit_widths_.find(signal);
  return it == bit_widths_.end() ? nullptr : it->second.get();
}

std::vector<InstanceBitWidthVar*> CellInstance::bit_width_variables() const {
  std::vector<InstanceBitWidthVar*> out;
  out.reserve(bit_widths_.size());
  for (const auto& [name, var] : bit_widths_) out.push_back(var.get());
  return out;
}

std::vector<InstanceParamVar*> CellInstance::parameter_variables() const {
  std::vector<InstanceParamVar*> out;
  out.reserve(params_.size());
  for (const auto& [name, var] : params_) out.push_back(var.get());
  return out;
}

InstanceParamVar& CellInstance::parameter(const std::string& name) {
  auto it = params_.find(name);
  if (it != params_.end()) return *it->second;
  ClassParamVar* cp = cls_->find_parameter(name);
  if (cp == nullptr) {
    throw std::out_of_range("no parameter '" + name + "' on " + cls_->name());
  }
  auto var = std::make_unique<InstanceParamVar>(
      cls_->context(), qualified_name(), "param(" + name + ")", cp);
  InstanceParamVar& ref = *var;
  params_.emplace(name, std::move(var));
  if (cp->has_value()) {
    ref.set(cp->value(), implicit_just(*cp));  // class default propagates
  }
  return ref;
}

InstanceParamVar* CellInstance::find_parameter(std::string_view name) const {
  auto it = params_.find(name);
  return it == params_.end() ? nullptr : it->second.get();
}

InstanceDelayVar& CellInstance::delay(const std::string& from,
                                      const std::string& to) {
  if (InstanceDelayVar* existing = find_delay(from, to)) return *existing;
  ClassDelayVar* cd = cls_->find_delay(from, to);
  if (cd == nullptr) {
    throw std::out_of_range("no declared delay " + from + "->" + to + " on " +
                            cls_->name());
  }
  auto var = std::make_unique<InstanceDelayVar>(cls_->context(), *this, *cd,
                                                qualified_name());
  InstanceDelayVar& ref = *var;
  delays_.emplace(std::make_pair(from, to), std::move(var));
  if (cd->value().is_number()) {
    ref.set(Value(cd->value().as_number() + ref.rc_adjustment()),
            implicit_just(*cd));
  }
  return ref;
}

InstanceDelayVar* CellInstance::find_delay(std::string_view from,
                                           std::string_view to) const {
  auto it = delays_.find(DelayKeyLess::View{from, to});
  return it == delays_.end() ? nullptr : it->second.get();
}

std::vector<InstanceDelayVar*> CellInstance::delay_variables() const {
  std::vector<InstanceDelayVar*> out;
  out.reserve(delays_.size());
  for (const auto& [key, var] : delays_) out.push_back(var.get());
  return out;
}

Net* CellInstance::net_for(const std::string& signal) const {
  auto it = connections_.find(signal);
  return it == connections_.end() ? nullptr : it->second;
}

void CellInstance::note_connection(const std::string& signal, Net* net) {
  if (net == nullptr) {
    connections_.erase(signal);
  } else {
    connections_[signal] = net;
  }
}

std::vector<IoPin> CellInstance::placed_pins() const {
  std::vector<IoPin> out;
  for (const IoSignal* sig : cls_->all_signals()) {
    for (const IoPin& pin : sig->pins()) {
      const core::Point pos = transform_.apply(pin.position);
      const core::Point dir =
          transform_.apply(side_normal(pin.side)) - transform_.apply(core::Point{0, 0});
      out.push_back({pin.signal, pos, side_from_normal(dir)});
    }
  }
  return out;
}

std::vector<IoPin> CellInstance::stretched_pins() const {
  std::vector<IoPin> pins = placed_pins();
  const core::Value& iv = bbox_->value();
  if (!iv.is_rect()) return pins;
  const Rect box = iv.as_rect();
  for (IoPin& pin : pins) {
    // Project onto the placement boundary for the pin's (placed) side,
    // clamping the free coordinate into the box.
    switch (pin.side) {
      case Side::kLeft: pin.position.x = box.x0; break;
      case Side::kRight: pin.position.x = box.x1; break;
      case Side::kBottom: pin.position.y = box.y0; break;
      case Side::kTop: pin.position.y = box.y1; break;
    }
    pin.position.x = std::clamp(pin.position.x, box.x0, box.x1);
    pin.position.y = std::clamp(pin.position.y, box.y0, box.y1);
  }
  return pins;
}

// ---- CellClass -----------------------------------------------------------------

CellClass::CellClass(Library& lib, std::string name, CellClass* superclass)
    : library_(lib), name_(std::move(name)), superclass_(superclass) {
  if (superclass_ != nullptr) superclass_->subclasses_.push_back(this);
  bbox_ = std::make_unique<ClassBBoxVar>(context(), *this, name_);
  bbox_->set_recalculate([this] {
    const Rect r = calculate_bounding_box();
    if (!r.empty()) bbox_->set(Value(r), Justification::application());
  });
}

CellClass::~CellClass() {
  invalidate_delay_networks();
  if (superclass_ != nullptr) {
    auto& sibs = superclass_->subclasses_;
    sibs.erase(std::remove(sibs.begin(), sibs.end(), this), sibs.end());
  }
}

core::PropagationContext& CellClass::context() const {
  return library_.context();
}

SignalTypeRegistry& CellClass::types() const { return library_.types(); }

std::vector<CellClass*> CellClass::all_subclasses() const {
  std::vector<CellClass*> out;
  for (CellClass* sub : subclasses_) {
    out.push_back(sub);
    const auto rest = sub->all_subclasses();
    out.insert(out.end(), rest.begin(), rest.end());
  }
  return out;
}

bool CellClass::is_descendant_of(const CellClass& other) const {
  for (const CellClass* c = this; c != nullptr; c = c->superclass_) {
    if (c == &other) return true;
  }
  return false;
}

IoSignal& CellClass::declare_signal(const std::string& name,
                                    SignalDirection dir) {
  // Duplicates within this class are errors; shadowing an *inherited*
  // signal is the specialization mechanism of §3.3.2.
  for (const auto& s : signals_) {
    if (s->name() == name) {
      throw std::invalid_argument("signal '" + name +
                                  "' already declared on " + name_);
    }
  }
  signals_.push_back(std::make_unique<IoSignal>(*this, name, dir));
  return *signals_.back();
}

IoSignal* CellClass::find_signal(std::string_view name) const {
  for (const auto& s : signals_) {
    if (s->name() == name) return s.get();
  }
  // Inherited interface (thesis §3.3.2: subclasses inherit instance
  // variables of the superclass).
  if (superclass_ != nullptr) return superclass_->find_signal(name);
  return nullptr;
}

IoSignal& CellClass::signal(const std::string& name) const {
  IoSignal* s = find_signal(name);
  if (s == nullptr) {
    throw std::out_of_range("no signal '" + name + "' on " + name_);
  }
  return *s;
}

std::vector<IoSignal*> CellClass::all_signals() const {
  std::vector<IoSignal*> out;
  for (const CellClass* c = this; c != nullptr; c = c->superclass_) {
    for (const auto& s : c->signals_) {
      const bool shadowed =
          std::any_of(out.begin(), out.end(), [&](const IoSignal* o) {
            return o->name() == s->name();
          });
      if (!shadowed) out.push_back(s.get());
    }
  }
  return out;
}

ClassParamVar& CellClass::declare_parameter(const std::string& name, double lo,
                                            double hi, Value default_value) {
  if (params_.count(name) != 0) {
    throw std::invalid_argument("parameter '" + name +
                                "' already declared on " + name_);
  }
  auto var = std::make_unique<ClassParamVar>(context(), name_,
                                             "param(" + name + ")");
  ClassParamVar& ref = *var;
  ref.set_range(lo, hi);
  params_.emplace(name, std::move(var));
  if (!default_value.is_nil()) {
    ref.set(std::move(default_value), Justification::default_value());
  }
  return ref;
}

ClassParamVar* CellClass::find_parameter(std::string_view name) const {
  auto it = params_.find(name);
  if (it != params_.end()) return it->second.get();
  if (superclass_ != nullptr) return superclass_->find_parameter(name);
  return nullptr;
}

CellInstance& CellClass::add_subcell(CellClass& cls, const std::string& name,
                                     Transform t) {
  if (is_part_of(cls)) {
    throw std::invalid_argument("cyclic instantiation: " + cls.name() +
                                " contains " + name_);
  }
  subcells_.push_back(std::make_unique<CellInstance>(cls, this, name, t));
  structure_edited();
  return *subcells_.back();
}

void CellClass::remove_subcell(CellInstance& inst) {
  // Withdraw from every net first so the typing constraints shrink with
  // proper dependency-directed erasure.
  for (const auto& net : nets_) {
    const auto conns = net->connections();
    for (const NetConnection& c : conns) {
      if (c.instance == &inst) net->disconnect(inst, c.signal);
    }
  }
  subcells_.erase(std::remove_if(subcells_.begin(), subcells_.end(),
                                 [&](const std::unique_ptr<CellInstance>& p) {
                                   return p.get() == &inst;
                                 }),
                  subcells_.end());
  structure_edited();
}

CellInstance& CellClass::replace_subcell(CellInstance& inst,
                                         CellClass& realization) {
  // Capture the old instance's context.
  const std::string name = inst.name();
  const Transform t = inst.transform();
  const Value placement = inst.bounding_box().value();
  const bool placement_user = inst.bounding_box().last_set_by().is_user();
  std::vector<std::pair<Net*, std::string>> wiring;
  for (const IoSignal* sig : inst.cls().all_signals()) {
    if (Net* net = inst.net_for(sig->name())) {
      wiring.emplace_back(net, sig->name());
    }
  }
  remove_subcell(inst);

  CellInstance& fresh = add_subcell(realization, name, t);
  if (placement.is_rect() && placement_user) {
    fresh.bounding_box().set(placement, Justification::user());
  }
  for (const auto& [net, signal] : wiring) {
    if (realization.find_signal(signal) != nullptr) {
      net->connect(fresh, signal);
    }
  }
  return fresh;
}

CellInstance* CellClass::find_subcell(std::string_view name) const {
  for (const auto& s : subcells_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

bool CellClass::is_part_of(const CellClass& other) const {
  // Upward through the cells that instantiate this one: a cell being loaded
  // is instantiated nowhere yet, so a load pays one comparison.
  if (this == &other) return true;
  for (const CellInstance* i : instances_) {
    const CellClass* p = i->parent_cell();
    if (p != nullptr && p->is_part_of(other)) return true;
  }
  return false;
}

Net& CellClass::add_net(const std::string& name) {
  nets_.push_back(std::make_unique<Net>(*this, name));
  return *nets_.back();
}

void CellClass::remove_net(Net& net) {
  // Drop the connections one by one for proper constraint updates.
  const auto conns = net.connections();
  for (const NetConnection& c : conns) {
    if (c.instance != nullptr) {
      net.disconnect(*c.instance, c.signal);
    } else {
      net.disconnect_io(c.signal);
    }
  }
  nets_.erase(std::remove_if(
                  nets_.begin(), nets_.end(),
                  [&](const std::unique_ptr<Net>& p) { return p.get() == &net; }),
              nets_.end());
  structure_edited();
}

Net* CellClass::find_net(const std::string& name) const {
  for (const auto& n : nets_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

void CellClass::register_instance(CellInstance& i) {
  instances_.push_back(&i);
}

void CellClass::unregister_instance(CellInstance& i) {
  instances_.erase(std::remove(instances_.begin(), instances_.end(), &i),
                   instances_.end());
}

Rect CellClass::calculate_bounding_box() const {
  Rect acc;
  for (const auto& sub : subcells_) {
    const Value& iv = sub->bounding_box().value();
    if (iv.is_rect()) {
      acc = acc.union_with(iv.as_rect());
      continue;
    }
    const Value& cb = sub->cls().bounding_box().demand();
    if (cb.is_rect()) {
      acc = acc.union_with(sub->transform().apply(cb.as_rect()));
    }
  }
  return acc;
}

// ---- delays ----------------------------------------------------------------------

ClassDelayVar& CellClass::declare_delay(const std::string& from,
                                        const std::string& to) {
  auto it = delays_.find(DelayKeyLess::View{from, to});
  if (it != delays_.end()) return *it->second;
  if (find_signal(from) == nullptr || find_signal(to) == nullptr) {
    throw std::out_of_range("delay endpoints must be declared signals of " +
                            name_);
  }
  auto var = std::make_unique<ClassDelayVar>(context(), *this, from, to, name_);
  ClassDelayVar& ref = *var;
  delays_.emplace(std::make_pair(from, to), std::move(var));
  return ref;
}

ClassDelayVar* CellClass::find_delay(std::string_view from,
                                     std::string_view to) const {
  auto it = delays_.find(DelayKeyLess::View{from, to});
  if (it != delays_.end()) return it->second.get();
  if (superclass_ != nullptr) return superclass_->find_delay(from, to);
  return nullptr;
}

std::vector<ClassDelayVar*> CellClass::delay_variables() const {
  std::vector<ClassDelayVar*> out;
  for (const CellClass* c = this; c != nullptr; c = c->superclass_) {
    for (const auto& [key, var] : c->delays_) {
      const bool shadowed =
          std::any_of(out.begin(), out.end(), [&](const ClassDelayVar* o) {
            return o->from() == var->from() && o->to() == var->to();
          });
      if (!shadowed) out.push_back(var.get());
    }
  }
  return out;
}

Status CellClass::set_leaf_delay(const std::string& from,
                                 const std::string& to, double seconds) {
  ClassDelayVar& var = declare_delay(from, to);
  return var.set(Value(seconds), Justification::application());
}

void CellClass::enumerate_paths(
    const std::string& from_signal, Net* net, const std::string& to_signal,
    std::vector<InstanceDelayVar*>& prefix,
    std::vector<const Net*>& nets_on_path,
    std::vector<std::vector<InstanceDelayVar*>>& out) const {
  if (net == nullptr) return;
  if (std::find(nets_on_path.begin(), nets_on_path.end(), net) !=
      nets_on_path.end()) {
    return;  // combinational loop guard
  }
  nets_on_path.push_back(net);
  for (const NetConnection& c : net->connections()) {
    if (c.instance == nullptr) {
      // Reached the destination io-signal: a complete delay path.
      if (c.signal == to_signal && !prefix.empty()) out.push_back(prefix);
      continue;
    }
    CellInstance& inst = *c.instance;
    // Only subcell delays with declared class delay variables participate
    // (thesis §7.3: the designer focuses attention on critical paths).
    for (ClassDelayVar* cd : inst.cls().delay_variables()) {
      if (cd->from() != c.signal) continue;
      InstanceDelayVar& idv = inst.delay(cd->from(), cd->to());
      prefix.push_back(&idv);
      enumerate_paths(from_signal, inst.net_for(cd->to()), to_signal, prefix,
                      nets_on_path, out);
      prefix.pop_back();
    }
  }
  nets_on_path.pop_back();
}

std::vector<std::vector<InstanceDelayVar*>> CellClass::delay_paths(
    const std::string& from, const std::string& to) const {
  std::vector<std::vector<InstanceDelayVar*>> out;
  const IoSignal* src = find_signal(from);
  if (src == nullptr || src->internal_net() == nullptr) return out;
  std::vector<InstanceDelayVar*> prefix;
  std::vector<const Net*> nets_on_path;
  enumerate_paths(from, src->internal_net(), to, prefix, nets_on_path, out);
  return out;
}

CellClass::CriticalPath CellClass::critical_path(const std::string& from,
                                                 const std::string& to) const {
  CriticalPath best;
  for (auto& path : delay_paths(from, to)) {
    double sum = 0.0;
    bool complete = true;
    for (const InstanceDelayVar* d : path) {
      if (!d->value().is_number()) {
        complete = false;
        break;
      }
      sum += d->value().as_number();
    }
    if (!complete) continue;
    if (best.total.is_nil() || sum > best.total.as_number()) {
      best.path = std::move(path);
      best.total = Value(sum);
    }
  }
  return best;
}

void CellClass::build_delay_networks() {
  invalidate_delay_networks();
  auto& ctx = context();

  // Refresh context-adjusted instance delays of every subcell whose class
  // delay characteristics are already known (RC adjustments depend on the
  // now-complete connectivity).
  for (const auto& sub : subcells_) {
    for (ClassDelayVar* cd : sub->cls().delay_variables()) {
      if (!cd->value().is_number()) continue;
      InstanceDelayVar& idv = sub->delay(cd->from(), cd->to());
      const Value adjusted(cd->value().as_number() + idv.rc_adjustment());
      if (idv.value() != adjusted) idv.set(adjusted, implicit_just(*cd));
    }
  }

  // One UniAddition per path, one UniMaximum per class delay (thesis
  // Fig 7.12).
  for (const auto& [key, cdv] : delays_) {
    const auto paths = delay_paths(key.first, key.second);
    if (paths.empty()) continue;
    std::vector<Variable*> path_vars;
    int index = 0;
    for (const auto& path : paths) {
      auto pv = std::make_unique<StemVariable>(
          ctx, name_,
          "delayPath" + std::to_string(index++) + "(" + key.first + "->" +
              key.second + ")");
      auto& add = ctx.make<core::UniAdditionConstraint>();
      add.set_result(*pv);
      for (InstanceDelayVar* idv : path) add.basic_add_argument(*idv);
      delay_constraints_.push_back(&add);
      add.reinitialize_variables();
      path_vars.push_back(pv.get());
      delay_aux_vars_.push_back(std::move(pv));
    }
    auto& mx = ctx.make<core::UniMaximumConstraint>();
    mx.set_result(*cdv);
    for (Variable* pv : path_vars) mx.basic_add_argument(*pv);
    delay_constraints_.push_back(&mx);
    mx.reinitialize_variables();
  }
  delay_networks_built_ = true;
}

void CellClass::invalidate_delay_networks() {
  auto& ctx = context();
  // Reverse creation order: maxima first, then the path adders.
  for (auto it = delay_constraints_.rbegin(); it != delay_constraints_.rend();
       ++it) {
    ctx.destroy_constraint(**it);
  }
  delay_constraints_.clear();
  delay_aux_vars_.clear();
  delay_networks_built_ = false;
}

// ---- change management ---------------------------------------------------------------

void CellClass::structure_edited() {
  if (delay_networks_built_) invalidate_delay_networks();
  if (bbox_->has_value() && !bbox_->last_set_by().is_user()) {
    bbox_->set(Value::nil(), Justification::update());
  }
  changed(kChangedStructure);
}

void CellClass::on_changed(const std::string& key) {
  if (broadcasting_up_) return;
  broadcasting_up_ = true;
  // Changes propagate up the design hierarchy to the cells containing
  // instances of this cell (thesis §6.5.2).
  for (CellInstance* inst : instances_) {
    if (inst->parent_cell() != nullptr) inst->parent_cell()->changed(key);
  }
  broadcasting_up_ = false;
}

// ---- module selection (thesis ch. 8) ---------------------------------------------------

bool CellClass::valid_bbox_for(CellInstance& inst) {
  ++library_.selection_stats().bbox_checks;
  const Value cb = bounding_box().demand();
  if (!cb.is_rect()) return true;  // no geometry information yet
  const Rect required = inst.transform().apply(cb.as_rect());
  const Value& iv = inst.bounding_box().value();
  if (!iv.is_rect()) {
    // Unplaced: can the default placement be assumed without violating
    // area/aspect constraints?
    return inst.bounding_box().can_be_set_to(Value(required));
  }
  return iv.as_rect().extent_covers(required);
}

bool CellClass::valid_signals_for(CellInstance& inst) {
  ++library_.selection_stats().signal_checks;
  for (IoSignal* gsig : inst.cls().all_signals()) {
    IoSignal* mine = find_signal(gsig->name());
    if (mine == nullptr) return false;
    const Value& iw = inst.bit_width(gsig->name()).value();
    const Value& cw = mine->bit_width().value();
    if (iw.is_int() && cw.is_int() && iw != cw) return false;
    Net* net = inst.net_for(gsig->name());
    if (net == nullptr) continue;
    const Value& nw = net->bit_width().value();
    if (nw.is_int() && cw.is_int() && nw != cw) return false;
    const SignalType* nd = type_of(net->data_type().value());
    const SignalType* md = type_of(mine->data_type().value());
    if (nd != nullptr && md != nullptr && !nd->is_compatible_with(*md)) {
      return false;
    }
    const SignalType* ne = type_of(net->electrical_type().value());
    const SignalType* me = type_of(mine->electrical_type().value());
    if (ne != nullptr && me != nullptr && !ne->is_compatible_with(*me)) {
      return false;
    }
  }
  return true;
}

core::Value CellClass::adjusted_delay_for(const std::string& from,
                                          const std::string& to,
                                          const CellInstance& context_inst) {
  ClassDelayVar* cd = find_delay(from, to);
  if (cd == nullptr) return Value::nil();
  const Value& v = cd->demand();
  if (!v.is_number()) return Value::nil();
  double adj = 0.0;
  if (const IoSignal* to_sig = find_signal(to)) {
    if (const Net* out_net = context_inst.net_for(to)) {
      adj += to_sig->output_resistance() *
             out_net->total_load_capacitance(&context_inst, to);
    }
  }
  return Value(v.as_number() + adj);
}

bool CellClass::valid_delays_for(CellInstance& inst) {
  ++library_.selection_stats().delay_checks;
  for (InstanceDelayVar* dv : inst.delay_variables()) {
    const Value nd = adjusted_delay_for(dv->class_delay().from(),
                                        dv->class_delay().to(), inst);
    if (!nd.is_number()) continue;  // candidate uncharacterized: cannot test
    if (!dv->can_be_set_to(nd)) return false;
  }
  return true;
}

bool CellClass::is_valid_realization_for(
    CellInstance& inst, const std::vector<std::string>& priorities) {
  ++library_.selection_stats().candidates_tested;
  static const std::vector<std::string> kAll = {"bBox", "signals", "delays"};
  const auto& order = priorities.empty() ? kAll : priorities;
  for (const std::string& symbol : order) {
    if (symbol == "bBox") {
      if (!valid_bbox_for(inst)) return false;
    } else if (symbol == "signals") {
      if (!valid_signals_for(inst)) return false;
    } else if (symbol == "delays") {
      if (!valid_delays_for(inst)) return false;
    } else {
      throw std::invalid_argument("unknown selection property: " + symbol);
    }
  }
  return true;
}

std::vector<CellClass*> CellClass::select_realizations_for(
    CellInstance& inst, const std::vector<std::string>& priorities) {
  if (!is_generic()) return {this};
  std::vector<CellClass*> out;
  for (CellClass* sub : subclasses_) {
    const auto found = sub->valid_realizations_for(inst, priorities);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

std::vector<CellClass*> CellClass::valid_realizations_for(
    CellInstance& inst, const std::vector<std::string>& priorities) {
  if (is_generic()) {
    // Prune the search tree by testing generic cells as well (thesis
    // Fig 8.3): a generic cell carries the best-case characteristics of its
    // descendants, so failing here rules out the whole subtree.
    if (is_valid_realization_for(inst, priorities)) {
      return select_realizations_for(inst, priorities);
    }
    return {};
  }
  if (is_valid_realization_for(inst, priorities)) return {this};
  return {};
}

std::vector<CellClass*> CellClass::valid_realizations_unpruned(
    CellInstance& inst, const std::vector<std::string>& priorities) {
  std::vector<CellClass*> out;
  std::vector<CellClass*> candidates = all_subclasses();
  if (!is_generic()) candidates.insert(candidates.begin(), this);
  for (CellClass* c : candidates) {
    if (c->is_generic()) continue;
    if (c->is_valid_realization_for(inst, priorities)) out.push_back(c);
  }
  return out;
}

}  // namespace stemcp::env
