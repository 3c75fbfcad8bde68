#include "classad/parser.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "classad/lexer.h"

namespace erms::classad {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// A parsed subtree and its depth in nesting levels (see kMaxExprDepth).
struct Parsed {
  ExprPtr expr;
  std::size_t depth{1};
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ExprPtr parse_full_expr() {
    Parsed e = expr();
    expect(TokenKind::kEnd, "trailing input after expression");
    return std::move(e.expr);
  }

  ClassAd parse_ad() {
    ClassAd ad;
    const bool bracketed = accept(TokenKind::kLBracket);
    while (true) {
      if (bracketed && accept(TokenKind::kRBracket)) {
        break;
      }
      if (peek().kind == TokenKind::kEnd) {
        if (bracketed) {
          throw ParseError("missing ']'", peek().offset);
        }
        break;
      }
      const Token& name = peek();
      if (name.kind != TokenKind::kIdentifier) {
        throw ParseError("expected attribute name", name.offset);
      }
      advance();
      expect(TokenKind::kAssign, "expected '=' after attribute name");
      ad.insert(name.text, expr().expr);
      // Separators between assignments are ';' (optionally trailing).
      while (accept(TokenKind::kSemicolon)) {
      }
    }
    expect(TokenKind::kEnd, "trailing input after ad");
    return ad;
  }

 private:
  /// One nesting level on the way down: a parenthesised group, a unary
  /// operand, a conditional branch or a call argument. The enclosing levels
  /// all add to the finished tree's depth, so failing here rejects only
  /// trees that would be too deep, and does so before the recursion can
  /// exhaust the stack.
  class Descend {
   public:
    explicit Descend(Parser& parser) : parser_(parser) {
      if (++parser_.nesting_ > kMaxExprDepth) {
        --parser_.nesting_;
        parser_.too_deep();
      }
    }
    ~Descend() { --parser_.nesting_; }
    Descend(const Descend&) = delete;
    Descend& operator=(const Descend&) = delete;

   private:
    Parser& parser_;
  };

  [[noreturn]] void too_deep() const {
    throw ParseError("expression nested deeper than " + std::to_string(kMaxExprDepth) +
                         " levels",
                     peek().offset);
  }

  /// Wrap `expr` as a node one level above its deepest child.
  Parsed node(ExprPtr expr, std::size_t child_depth) const {
    if (child_depth >= kMaxExprDepth) {
      too_deep();
    }
    return {std::move(expr), child_depth + 1};
  }

  Parsed binary(BinaryOp op, Parsed lhs, Parsed rhs) const {
    const std::size_t depth = std::max(lhs.depth, rhs.depth);
    return node(std::make_shared<BinaryExpr>(op, std::move(lhs.expr), std::move(rhs.expr)),
                depth);
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool accept(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  void expect(TokenKind kind, const char* message) {
    if (!accept(kind)) {
      throw ParseError(message, peek().offset);
    }
  }

  Parsed expr() {
    Parsed cond = or_expr();
    if (accept(TokenKind::kQuestion)) {
      const Descend level{*this};
      Parsed then = expr();
      expect(TokenKind::kColon, "expected ':' in conditional");
      Parsed otherwise = expr();
      const std::size_t depth = std::max({cond.depth, then.depth, otherwise.depth});
      return node(std::make_shared<ConditionalExpr>(std::move(cond.expr), std::move(then.expr),
                                                    std::move(otherwise.expr)),
                  depth);
    }
    return cond;
  }

  Parsed or_expr() {
    Parsed lhs = and_expr();
    while (accept(TokenKind::kOr)) {
      lhs = binary(BinaryOp::kOr, std::move(lhs), and_expr());
    }
    return lhs;
  }

  Parsed and_expr() {
    Parsed lhs = cmp_expr();
    while (accept(TokenKind::kAnd)) {
      lhs = binary(BinaryOp::kAnd, std::move(lhs), cmp_expr());
    }
    return lhs;
  }

  Parsed cmp_expr() {
    Parsed lhs = sum_expr();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case TokenKind::kEq:
          op = BinaryOp::kEq;
          break;
        case TokenKind::kNe:
          op = BinaryOp::kNe;
          break;
        case TokenKind::kLt:
          op = BinaryOp::kLt;
          break;
        case TokenKind::kLe:
          op = BinaryOp::kLe;
          break;
        case TokenKind::kGt:
          op = BinaryOp::kGt;
          break;
        case TokenKind::kGe:
          op = BinaryOp::kGe;
          break;
        default:
          return lhs;
      }
      advance();
      lhs = binary(op, std::move(lhs), sum_expr());
    }
  }

  Parsed sum_expr() {
    Parsed lhs = term_expr();
    while (true) {
      if (accept(TokenKind::kPlus)) {
        lhs = binary(BinaryOp::kAdd, std::move(lhs), term_expr());
      } else if (accept(TokenKind::kMinus)) {
        lhs = binary(BinaryOp::kSub, std::move(lhs), term_expr());
      } else {
        return lhs;
      }
    }
  }

  Parsed term_expr() {
    Parsed lhs = unary_expr();
    while (true) {
      if (accept(TokenKind::kStar)) {
        lhs = binary(BinaryOp::kMul, std::move(lhs), unary_expr());
      } else if (accept(TokenKind::kSlash)) {
        lhs = binary(BinaryOp::kDiv, std::move(lhs), unary_expr());
      } else if (accept(TokenKind::kPercent)) {
        lhs = binary(BinaryOp::kMod, std::move(lhs), unary_expr());
      } else {
        return lhs;
      }
    }
  }

  Parsed unary_expr() {
    UnaryOp op;
    if (accept(TokenKind::kNot)) {
      op = UnaryOp::kNot;
    } else if (accept(TokenKind::kMinus)) {
      op = UnaryOp::kMinus;
    } else {
      return primary();
    }
    const Descend level{*this};
    Parsed operand = unary_expr();
    return node(std::make_shared<UnaryExpr>(op, std::move(operand.expr)), operand.depth);
  }

  Parsed primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        advance();
        return {literal(Value::integer(t.int_value))};
      }
      case TokenKind::kReal: {
        advance();
        return {literal(Value::real(t.real_value))};
      }
      case TokenKind::kString: {
        advance();
        return {literal(Value::string(t.text))};
      }
      case TokenKind::kLParen: {
        advance();
        const Descend level{*this};
        Parsed inner = expr();
        expect(TokenKind::kRParen, "expected ')'");
        // The group makes no node but counts as a level, so the depth
        // also bounds the parser's own recursion.
        return node(std::move(inner.expr), inner.depth);
      }
      case TokenKind::kIdentifier:
        return identifier();
      default:
        throw ParseError("expected expression", t.offset);
    }
  }

  Parsed identifier() {
    const Token name = peek();
    advance();
    const std::string low = lower(name.text);
    // Keyword literals.
    if (low == "true") {
      return {literal(Value::boolean(true))};
    }
    if (low == "false") {
      return {literal(Value::boolean(false))};
    }
    if (low == "undefined") {
      return {literal(Value::undefined())};
    }
    if (low == "error") {
      return {literal(Value::error())};
    }
    // Scoped reference: MY.attr / TARGET.attr.
    if ((low == "my" || low == "target") && accept(TokenKind::kDot)) {
      const Token& attr = peek();
      if (attr.kind != TokenKind::kIdentifier) {
        throw ParseError("expected attribute after scope", attr.offset);
      }
      advance();
      const auto scope =
          low == "my" ? AttrRefExpr::Scope::kMy : AttrRefExpr::Scope::kTarget;
      return {std::make_shared<AttrRefExpr>(scope, attr.text)};
    }
    // Function call.
    if (accept(TokenKind::kLParen)) {
      std::vector<ExprPtr> args;
      std::size_t depth = 0;
      if (!accept(TokenKind::kRParen)) {
        const Descend level{*this};
        do {
          Parsed arg = expr();
          depth = std::max(depth, arg.depth);
          args.push_back(std::move(arg.expr));
        } while (accept(TokenKind::kComma));
        expect(TokenKind::kRParen, "expected ')' after arguments");
      }
      return node(std::make_shared<FunctionCallExpr>(name.text, std::move(args)), depth);
    }
    return {std::make_shared<AttrRefExpr>(AttrRefExpr::Scope::kDefault, name.text)};
  }

  std::vector<Token> tokens_;
  std::size_t pos_{0};
  std::size_t nesting_{0};
};

}  // namespace

ExprPtr parse_expr(std::string_view input) {
  Parser parser{lex(input)};
  return parser.parse_full_expr();
}

ClassAd parse_classad(std::string_view input) {
  Parser parser{lex(input)};
  return parser.parse_ad();
}

}  // namespace erms::classad
