#include "ir/parser.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"

namespace posetrl {

namespace {

/// Thrown internally on parse errors; converted to the error string at the
/// API boundary.
struct ParseError {
  std::string message;
  int line;
};

/// Character-level tokenizer + recursive-descent parser.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<Module> run() {
    expectWord("module");
    module_ = std::make_unique<Module>(parseQuotedString());
    ArenaScope arena_scope(module_->arena());
    skipSpace();
    while (!atEnd()) {
      const std::string word = peekWord();
      if (word == "global") {
        parseGlobal();
      } else if (word == "declare") {
        parseDeclare();
      } else if (word == "define") {
        parseDefine();
      } else {
        fail("expected 'global', 'declare' or 'define', got '" + word + "'");
      }
      skipSpace();
    }
    for (const auto& [global_name, fn_name] : pending_funcptrs_) {
      Function* f = module_->getFunction(fn_name);
      if (f == nullptr) {
        fail("funcptr init references unknown @" + fn_name);
      }
      module_->getGlobal(global_name)->setInit(GlobalInit::ofFuncPtr(f));
    }
    return std::move(module_);
  }

 private:
  // ---- character/token layer ----

  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError{msg, line_};
  }

  bool atEnd() {
    skipSpace();
    return pos_ >= text_.size();
  }

  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == ';') {  // Line comment.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peekChar() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool tryConsume(char c) {
    if (peekChar() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!tryConsume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  bool tryConsumeArrow() {
    skipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
        text_[pos_ + 1] == '>') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  static bool isWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  }

  /// Reads an identifier-like word (letters, digits, '_', '.', '-').
  std::string parseWord() {
    skipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() && isWordChar(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  std::string peekWord() {
    skipSpace();
    std::size_t p = pos_;
    while (p < text_.size() && isWordChar(text_[p])) ++p;
    return text_.substr(pos_, p - pos_);
  }

  void expectWord(const std::string& w) {
    const std::string got = parseWord();
    if (got != w) fail("expected '" + w + "', got '" + got + "'");
  }

  bool tryWord(const std::string& w) {
    skipSpace();
    std::size_t p = pos_;
    std::size_t i = 0;
    while (i < w.size() && p < text_.size() && text_[p] == w[i]) {
      ++p;
      ++i;
    }
    if (i == w.size() && (p >= text_.size() || !isWordChar(text_[p]))) {
      pos_ = p;
      return true;
    }
    return false;
  }

  std::string parseQuotedString() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out += text_[pos_++];
    }
    expect('"');
    return out;
  }

  std::int64_t parseInt() {
    skipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    return std::strtoll(text_.substr(start, pos_ - start).c_str(), nullptr,
                        10);
  }

  double parseDouble() {
    skipSpace();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected floating-point literal");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  // ---- types ----

  Type* parseType() {
    TypeContext& tc = module_->types();
    if (tryConsume('[')) {
      const std::int64_t n = parseInt();
      expectWord("x");
      Type* elem = parseType();
      expect(']');
      return tc.arrayOf(elem, static_cast<std::uint64_t>(n));
    }
    if (tryConsume('{')) {
      std::vector<Type*> fields;
      if (!tryConsume('}')) {
        do {
          fields.push_back(parseType());
        } while (tryConsume(','));
        expect('}');
      }
      return tc.structOf(std::move(fields));
    }
    const std::string w = parseWord();
    if (w == "void") return tc.voidTy();
    if (w == "i1") return tc.i1();
    if (w == "i8") return tc.i8();
    if (w == "i16") return tc.i16();
    if (w == "i32") return tc.i32();
    if (w == "i64") return tc.i64();
    if (w == "f64") return tc.f64();
    if (w == "ptr") {
      expect('<');
      Type* p = parseType();
      expect('>');
      return tc.ptrTo(p);
    }
    if (w == "fn") {
      expect('(');
      std::vector<Type*> params;
      if (!tryConsume(')')) {
        do {
          params.push_back(parseType());
        } while (tryConsume(','));
        expect(')');
      }
      if (!tryConsumeArrow()) fail("expected '->' in function type");
      Type* ret = parseType();
      return tc.funcType(ret, std::move(params));
    }
    fail("unknown type '" + w + "'");
  }

  // ---- module-level entities ----

  void parseGlobal() {
    expectWord("global");
    expect('@');
    const std::string name = parseWord();
    if (module_->getGlobal(name) != nullptr) {
      fail("duplicate global name @" + name);
    }
    expect(':');
    Type* vt = parseType();
    expect('=');
    GlobalInit init;
    const std::string kind = parseWord();
    if (kind == "zero") {
      init = GlobalInit::zero();
    } else if (kind == "int") {
      init = GlobalInit::ofInt(parseInt());
    } else if (kind == "float") {
      init = GlobalInit::ofFloat(parseDouble());
    } else if (kind == "array") {
      expect('[');
      std::vector<std::int64_t> elems;
      if (!tryConsume(']')) {
        do {
          elems.push_back(parseInt());
        } while (tryConsume(','));
        expect(']');
      }
      init = GlobalInit::ofIntArray(std::move(elems));
    } else if (kind == "funcptr") {
      expect('@');
      const std::string fname = parseWord();
      if (Function* f = module_->getFunction(fname)) {
        init = GlobalInit::ofFuncPtr(f);
      } else {
        // The function may be declared later in the module; resolve at the
        // end of parsing.
        init = GlobalInit::zero();
        pending_funcptrs_.emplace_back(name, fname);
      }
    } else {
      fail("unknown global initializer kind '" + kind + "'");
    }
    expect(',');
    const std::string linkage = parseWord();
    auto lk = GlobalVariable::Linkage::External;
    if (linkage == "internal") {
      lk = GlobalVariable::Linkage::Internal;
    } else if (linkage != "external") {
      fail("bad linkage '" + linkage + "'");
    }
    bool is_const = false;
    if (tryConsume(',')) {
      expectWord("const");
      is_const = true;
    }
    module_->createGlobal(name, vt, std::move(init), lk, is_const);
  }

  std::uint32_t parseAttrList() {
    std::uint32_t attrs = 0;
    expect('[');
    if (tryConsume(']')) return attrs;
    do {
      const std::string a = parseWord();
      if (a == "noinline") attrs |= static_cast<std::uint32_t>(FnAttr::NoInline);
      else if (a == "alwaysinline") attrs |= static_cast<std::uint32_t>(FnAttr::AlwaysInline);
      else if (a == "readnone") attrs |= static_cast<std::uint32_t>(FnAttr::ReadNone);
      else if (a == "readonly") attrs |= static_cast<std::uint32_t>(FnAttr::ReadOnly);
      else if (a == "nounwind") attrs |= static_cast<std::uint32_t>(FnAttr::NoUnwind);
      else if (a == "noreturn") attrs |= static_cast<std::uint32_t>(FnAttr::NoReturn);
      else if (a == "cold") attrs |= static_cast<std::uint32_t>(FnAttr::Cold);
      else if (a == "optsize") attrs |= static_cast<std::uint32_t>(FnAttr::OptSize);
      else fail("unknown attribute '" + a + "'");
    } while (tryConsume(','));
    expect(']');
    return attrs;
  }

  IntrinsicId parseIntrinsicId() {
    const std::string w = parseWord();
    if (w == "input") return IntrinsicId::Input;
    if (w == "sink") return IntrinsicId::Sink;
    if (w == "sinkf64") return IntrinsicId::SinkF64;
    if (w == "memset") return IntrinsicId::Memset;
    if (w == "expect") return IntrinsicId::Expect;
    if (w == "assume") return IntrinsicId::Assume;
    if (w == "assume_aligned") return IntrinsicId::AssumeAligned;
    fail("unknown intrinsic id '" + w + "'");
  }

  void parseDeclare() {
    expectWord("declare");
    expect('@');
    const std::string name = parseWord();
    expect(':');
    Type* fty = parseType();
    Function* f = createFunction(name, fty, Function::Linkage::External);
    if (tryWord("attrs")) f->setRawAttrs(parseAttrList());
    if (tryWord("intrinsic")) f->setIntrinsicId(parseIntrinsicId());
  }

  /// Module::createFunction aborts on a duplicate name; text is untrusted
  /// input, so a duplicate is a parse error instead.
  Function* createFunction(const std::string& name, Type* fty,
                           Function::Linkage linkage) {
    if (module_->getFunction(name) != nullptr) {
      fail("duplicate function name @" + name);
    }
    return module_->createFunction(name, fty, linkage);
  }

  void parseDefine() {
    expectWord("define");
    expect('@');
    const std::string name = parseWord();
    expect(':');
    Type* fty = parseType();
    const std::string linkage = parseWord();
    auto lk = Function::Linkage::External;
    if (linkage == "internal") {
      lk = Function::Linkage::Internal;
    } else if (linkage != "external") {
      fail("bad linkage '" + linkage + "'");
    }
    Function* f = createFunction(name, fty, lk);
    if (tryWord("attrs")) f->setRawAttrs(parseAttrList());
    expect('{');
    parseBody(f);
    expect('}');
    f->resetNameCounters();
  }

  // ---- function bodies ----

  struct Placeholder {
    std::unique_ptr<UndefValue> value;
    int line;  ///< First reference, for diagnostics.
  };

  void parseBody(Function* f) {
    values_.clear();
    placeholders_.clear();
    blocks_.clear();
    for (const auto& a : f->args()) values_[a->name()] = a.get();

    // Pre-scan for block labels so branches can reference them forward.
    preScanBlocks(f);

    BasicBlock* current = nullptr;
    while (peekChar() != '}') {
      if (tryWord("block")) {
        const std::string label = parseWord();
        expect(':');
        current = blocks_.at(label);
        continue;
      }
      if (current == nullptr) fail("instruction outside of a block");
      parseInstruction(f, current);
    }
    for (const auto& [name, ph] : placeholders_) {
      if (ph.value != nullptr && ph.value->hasUses()) {
        throw ParseError{"undefined value %" + name, ph.line};
      }
    }
  }

  /// Scans ahead (without consuming) to create all blocks of the body and
  /// to register a typed placeholder for every instruction result. Blocks
  /// may appear in non-topological order, so any operand can be a forward
  /// reference; the explicit "%name : type =" result syntax makes this
  /// resolvable in one look-ahead pass.
  void preScanBlocks(Function* f) {
    const std::size_t save_pos = pos_;
    const int save_line = line_;
    int depth = 0;
    while (pos_ < text_.size()) {
      skipSpace();
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c == '}') {
        if (depth == 0) break;
        --depth;
        ++pos_;
        continue;
      }
      if (c == '{') {  // Struct type literal inside an instruction.
        ++depth;
        ++pos_;
        continue;
      }
      if (c == '%' && depth == 0) {
        ++pos_;
        const std::string name = parseWord();
        skipSpace();
        // Only result declarations are followed by ": <type> =".
        if (pos_ < text_.size() && text_[pos_] == ':') {
          ++pos_;
          Type* type = parseType();
          skipSpace();
          if (pos_ < text_.size() && text_[pos_] == '=') {
            if (!placeholders_.count(name)) {
              Placeholder ph;
              ph.value = std::make_unique<UndefValue>(type);
              ph.line = line_;
              placeholders_[name] = std::move(ph);
            }
          }
        }
        continue;
      }
      if (isWordChar(c)) {
        const std::string w = parseWord();
        if (w == "block" && depth == 0) {
          const std::string label = parseWord();
          if (blocks_.count(label)) fail("duplicate block label " + label);
          BasicBlock* bb = f->addBlock("x");
          bb->setName(label);
          blocks_[label] = bb;
        }
        continue;
      }
      ++pos_;
    }
    pos_ = save_pos;
    line_ = save_line;
  }

  /// Looks up %name; falls back to the pre-registered typed placeholder for
  /// not-yet-defined results.
  Value* lookupValue(const std::string& name, Type* /*expected*/) {
    auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    auto ph_it = placeholders_.find(name);
    if (ph_it != placeholders_.end() && ph_it->second.value != nullptr) {
      return ph_it->second.value.get();
    }
    fail("reference to undefined value %" + name);
  }

  /// Parses an operand reference. \p expected may be null when the operand's
  /// type is self-evident (typed literals, globals, labels, known values).
  Value* parseOperand(Type* expected) {
    skipSpace();
    const char c = peekChar();
    if (c == '%') {
      ++pos_;
      const std::string name = parseWord();
      return lookupValue(name, expected);
    }
    if (c == '@') {
      ++pos_;
      const std::string name = parseWord();
      if (Function* f = module_->getFunction(name)) return f;
      if (GlobalVariable* g = module_->getGlobal(name)) return g;
      fail("unknown global reference @" + name);
    }
    if (tryWord("label")) {
      const std::string name = parseWord();
      auto it = blocks_.find(name);
      if (it == blocks_.end()) fail("unknown block label " + name);
      return it->second;
    }
    if (tryWord("null")) return module_->nullConst(parseType());
    if (tryWord("undef")) return module_->undef(parseType());
    // Typed literal: "<type> <number>".
    Type* t = parseType();
    if (t->isFloat()) return module_->constantFloat(parseDouble());
    if (t->isInteger()) return module_->constantInt(t, parseInt());
    fail("literal of unsupported type " + t->str());
  }

  ICmpInst::Pred parseICmpPred() {
    const std::string w = parseWord();
    if (w == "eq") return ICmpInst::Pred::EQ;
    if (w == "ne") return ICmpInst::Pred::NE;
    if (w == "slt") return ICmpInst::Pred::SLT;
    if (w == "sle") return ICmpInst::Pred::SLE;
    if (w == "sgt") return ICmpInst::Pred::SGT;
    if (w == "sge") return ICmpInst::Pred::SGE;
    if (w == "ult") return ICmpInst::Pred::ULT;
    if (w == "ule") return ICmpInst::Pred::ULE;
    if (w == "ugt") return ICmpInst::Pred::UGT;
    if (w == "uge") return ICmpInst::Pred::UGE;
    fail("unknown icmp predicate '" + w + "'");
  }

  FCmpInst::Pred parseFCmpPred() {
    const std::string w = parseWord();
    if (w == "oeq") return FCmpInst::Pred::OEQ;
    if (w == "one") return FCmpInst::Pred::ONE;
    if (w == "olt") return FCmpInst::Pred::OLT;
    if (w == "ole") return FCmpInst::Pred::OLE;
    if (w == "ogt") return FCmpInst::Pred::OGT;
    if (w == "oge") return FCmpInst::Pred::OGE;
    fail("unknown fcmp predicate '" + w + "'");
  }

  static std::optional<Opcode> opcodeFromName(const std::string& w) {
    static const std::map<std::string, Opcode> table = {
        {"alloca", Opcode::Alloca},   {"load", Opcode::Load},
        {"store", Opcode::Store},     {"gep", Opcode::Gep},
        {"ret", Opcode::Ret},         {"br", Opcode::Br},
        {"condbr", Opcode::CondBr},   {"switch", Opcode::Switch},
        {"unreachable", Opcode::Unreachable},
        {"phi", Opcode::Phi},         {"call", Opcode::Call},
        {"select", Opcode::Select},   {"add", Opcode::Add},
        {"sub", Opcode::Sub},         {"mul", Opcode::Mul},
        {"sdiv", Opcode::SDiv},       {"udiv", Opcode::UDiv},
        {"srem", Opcode::SRem},       {"urem", Opcode::URem},
        {"shl", Opcode::Shl},         {"lshr", Opcode::LShr},
        {"ashr", Opcode::AShr},       {"and", Opcode::And},
        {"or", Opcode::Or},           {"xor", Opcode::Xor},
        {"fadd", Opcode::FAdd},       {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul},       {"fdiv", Opcode::FDiv},
        {"icmp", Opcode::ICmp},       {"fcmp", Opcode::FCmp},
        {"zext", Opcode::ZExt},       {"sext", Opcode::SExt},
        {"trunc", Opcode::Trunc},     {"sitofp", Opcode::SIToFP},
        {"fptosi", Opcode::FPToSI},
    };
    auto it = table.find(w);
    if (it == table.end()) return std::nullopt;
    return it->second;
  }

  void defineResult(const std::string& name, Instruction* inst) {
    auto ph_it = placeholders_.find(name);
    if (ph_it != placeholders_.end() && ph_it->second.value != nullptr) {
      if (ph_it->second.value->type() != inst->type()) {
        fail("forward reference %" + name + " type mismatch");
      }
      ph_it->second.value->replaceAllUsesWith(inst);
      ph_it->second.value.reset();
    }
    if (values_.count(name)) fail("redefinition of %" + name);
    values_[name] = inst;
  }

  void parseInstruction(Function* f, BasicBlock* bb) {
    TypeContext& tc = module_->types();
    std::string result_name;
    Type* result_type = nullptr;
    if (peekChar() == '%') {
      ++pos_;
      result_name = parseWord();
      expect(':');
      result_type = parseType();
      expect('=');
    }
    const std::string opname = parseWord();
    const auto op = opcodeFromName(opname);
    if (!op) fail("unknown opcode '" + opname + "'");

    std::unique_ptr<Instruction> inst;
    switch (*op) {
      case Opcode::Alloca: {
        Type* at = parseType();
        if (result_type == nullptr || !result_type->isPointer()) {
          fail("alloca needs a pointer result type");
        }
        inst = std::make_unique<AllocaInst>(result_type, at, result_name);
        break;
      }
      case Opcode::Load: {
        if (result_type == nullptr) fail("load needs a result type");
        Value* ptr = parseOperand(tc.ptrTo(result_type));
        auto load = std::make_unique<LoadInst>(result_type, ptr, result_name);
        if (tryWord("align")) {
          load->setAlignment(static_cast<unsigned>(parseInt()));
        }
        inst = std::move(load);
        break;
      }
      case Opcode::Store: {
        Value* val = parseOperand(nullptr);
        expect(',');
        Value* ptr = parseOperand(tc.ptrTo(val->type()));
        auto store = std::make_unique<StoreInst>(tc.voidTy(), val, ptr);
        if (tryWord("align")) {
          store->setAlignment(static_cast<unsigned>(parseInt()));
        }
        inst = std::move(store);
        break;
      }
      case Opcode::Gep: {
        if (result_type == nullptr) fail("gep needs a result type");
        Value* base = parseOperand(nullptr);
        if (!base->type()->isPointer()) fail("gep base is not a pointer");
        expect('[');
        std::vector<Value*> indices;
        if (!tryConsume(']')) {
          do {
            indices.push_back(parseOperand(tc.i64()));
          } while (tryConsume(','));
          expect(']');
        }
        inst = std::make_unique<GepInst>(result_type, base->type()->pointee(),
                                         base, std::move(indices), result_name);
        break;
      }
      case Opcode::Phi: {
        if (result_type == nullptr) fail("phi needs a result type");
        auto phi = std::make_unique<PhiInst>(result_type, result_name);
        do {
          expect('[');
          Value* v = parseOperand(result_type);
          expect(',');
          const std::string label = parseWord();
          auto it = blocks_.find(label);
          if (it == blocks_.end()) fail("unknown block label " + label);
          expect(']');
          phi->addIncoming(v, it->second);
        } while (tryConsume(','));
        // Phis must sit at the head of their block.
        PhiInst* placed = phi.get();
        bb->pushBack(std::move(phi));
        if (!result_name.empty()) defineResult(result_name, placed);
        return;
      }
      case Opcode::Call: {
        Value* callee = nullptr;
        Type* fty = nullptr;
        if (tryWord("indirect")) {
          callee = parseOperand(nullptr);
          if (!callee->type()->isPointer() ||
              !callee->type()->pointee()->isFunction()) {
            fail("indirect call callee must be a function pointer");
          }
          fty = callee->type()->pointee();
        } else {
          expect('@');
          const std::string fname = parseWord();
          Function* fn = module_->getFunction(fname);
          if (fn == nullptr) fail("call to unknown function @" + fname);
          callee = fn;
          fty = fn->functionType();
        }
        expect('(');
        std::vector<Value*> args;
        const auto& params = fty->funcParams();
        if (!tryConsume(')')) {
          std::size_t i = 0;
          do {
            Type* expected =
                i < params.size() ? params[i] : nullptr;
            args.push_back(parseOperand(expected));
            ++i;
          } while (tryConsume(','));
          expect(')');
        }
        inst = std::make_unique<CallInst>(fty->funcReturn(), callee,
                                          std::move(args), result_name);
        break;
      }
      case Opcode::Ret: {
        if (tryWord("void")) {
          inst = std::make_unique<RetInst>(tc.voidTy(), nullptr);
        } else {
          inst = std::make_unique<RetInst>(tc.voidTy(),
                                           parseOperand(f->returnType()));
        }
        break;
      }
      case Opcode::Br: {
        expectWord("label");
        const std::string label = parseWord();
        auto it = blocks_.find(label);
        if (it == blocks_.end()) fail("unknown block label " + label);
        inst = std::make_unique<BrInst>(tc.voidTy(), it->second);
        break;
      }
      case Opcode::CondBr: {
        Value* cond = parseOperand(tc.i1());
        expect(',');
        expectWord("label");
        BasicBlock* t = lookupBlock(parseWord());
        expect(',');
        expectWord("label");
        BasicBlock* e = lookupBlock(parseWord());
        inst = std::make_unique<CondBrInst>(tc.voidTy(), cond, t, e);
        break;
      }
      case Opcode::Switch: {
        Value* cond = parseOperand(nullptr);
        expect(',');
        expectWord("default");
        expectWord("label");
        BasicBlock* def = lookupBlock(parseWord());
        auto sw = std::make_unique<SwitchInst>(tc.voidTy(), cond, def);
        expect(',');
        expect('[');
        if (!tryConsume(']')) {
          do {
            const std::int64_t v = parseInt();
            if (!tryConsumeArrow()) fail("expected '->' in switch case");
            expectWord("label");
            BasicBlock* target = lookupBlock(parseWord());
            sw->addCase(module_->constantInt(cond->type(), v), target);
          } while (tryConsume(','));
          expect(']');
        }
        inst = std::move(sw);
        break;
      }
      case Opcode::Unreachable:
        inst = std::make_unique<UnreachableInst>(tc.voidTy());
        break;
      case Opcode::Select: {
        if (result_type == nullptr) fail("select needs a result type");
        Value* cond = parseOperand(tc.i1());
        expect(',');
        Value* tv = parseOperand(result_type);
        expect(',');
        Value* fv = parseOperand(result_type);
        inst = std::make_unique<SelectInst>(result_type, cond, tv, fv,
                                            result_name);
        break;
      }
      case Opcode::ICmp: {
        const auto pred = parseICmpPred();
        Value* lhs = parseOperand(nullptr);
        expect(',');
        Value* rhs = parseOperand(lhs->type());
        inst = std::make_unique<ICmpInst>(tc.i1(), pred, lhs, rhs, result_name);
        break;
      }
      case Opcode::FCmp: {
        const auto pred = parseFCmpPred();
        Value* lhs = parseOperand(tc.f64());
        expect(',');
        Value* rhs = parseOperand(tc.f64());
        inst = std::make_unique<FCmpInst>(tc.i1(), pred, lhs, rhs, result_name);
        break;
      }
      case Opcode::ZExt:
      case Opcode::SExt:
      case Opcode::Trunc:
      case Opcode::SIToFP:
      case Opcode::FPToSI: {
        if (result_type == nullptr) fail("cast needs a result type");
        Value* v = parseOperand(nullptr);
        inst = std::make_unique<CastInst>(*op, result_type, v, result_name);
        break;
      }
      default: {  // Binary ops.
        if (result_type == nullptr) fail("binary op needs a result type");
        Value* lhs = parseOperand(result_type);
        expect(',');
        Value* rhs = parseOperand(result_type);
        inst = std::make_unique<BinaryInst>(*op, result_type, lhs, rhs,
                                            result_name);
        break;
      }
    }
    if (tryWord("vec")) {
      inst->setVectorWidth(static_cast<unsigned>(parseInt()));
    }
    Instruction* placed = inst.get();
    bb->pushBack(std::move(inst));
    if (!result_name.empty()) defineResult(result_name, placed);
  }

  BasicBlock* lookupBlock(const std::string& label) {
    auto it = blocks_.find(label);
    if (it == blocks_.end()) fail("unknown block label " + label);
    return it->second;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::unique_ptr<Module> module_;
  std::map<std::string, Value*> values_;
  std::map<std::string, Placeholder> placeholders_;
  std::map<std::string, BasicBlock*> blocks_;
  std::vector<std::pair<std::string, std::string>> pending_funcptrs_;
};

}  // namespace

std::unique_ptr<Module> parseModule(const std::string& text,
                                    std::string* error) {
  Parser parser(text);
  try {
    return parser.run();
  } catch (const ParseError& e) {
    if (error != nullptr) {
      std::ostringstream os;
      os << "parse error at line " << e.line << ": " << e.message;
      *error = os.str();
    }
    return nullptr;
  }
}

}  // namespace posetrl
