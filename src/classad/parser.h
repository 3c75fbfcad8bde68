#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "classad/classad.h"
#include "classad/expr.h"

namespace erms::classad {

/// Thrown on malformed ClassAd text, with the byte offset of the problem.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " (at offset " + std::to_string(offset) + ")"),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Deepest expression the parser accepts, in nesting levels: a literal or
/// reference is one level, and every operator, conditional, call and
/// parenthesised group adds one. Deeper input throws ParseError. Real
/// expressions stay far below this; the bound keeps the recursive parser,
/// evaluator and destructor within the stack.
inline constexpr std::size_t kMaxExprDepth = 256;

/// Parse a single expression, e.g. `TARGET.Memory >= 2048 && Arch == "x86_64"`.
/// Grammar (precedence low→high):
///   expr   := or ('?' expr ':' expr)?
///   or     := and ('||' and)*
///   and    := cmp ('&&' cmp)*
///   cmp    := sum (('=='|'!='|'<'|'<='|'>'|'>=') sum)*
///   sum    := term (('+'|'-') term)*
///   term   := unary (('*'|'/'|'%') unary)*
///   unary  := ('!'|'-')* primary
///   primary:= literal | ref | fn '(' args ')' | '(' expr ')'
///   ref    := [MY.|TARGET.] identifier
ExprPtr parse_expr(std::string_view input);

/// Parse a full ad: `[ attr = expr; attr2 = expr2 ]` (trailing ';' optional,
/// also accepts the bare `attr = expr` newline-free form without brackets).
ClassAd parse_classad(std::string_view input);

}  // namespace erms::classad
