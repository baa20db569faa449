#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.h"

namespace felix {
namespace obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += "\"";
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // The text of printf's %.17g (the standard defines to_chars with
    // a precision by printf), without printf's format parsing.
    char buf[32];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17);
    return std::string(buf, result.ptr);
}

bool
JsonValue::asBool() const
{
    FELIX_CHECK(kind_ == Kind::Bool, "json: not a bool");
    return boolValue_;
}

double
JsonValue::asNumber() const
{
    FELIX_CHECK(kind_ == Kind::Number, "json: not a number");
    return numberValue_;
}

const std::string &
JsonValue::asString() const
{
    FELIX_CHECK(kind_ == Kind::String, "json: not a string");
    return stringValue_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    FELIX_CHECK(kind_ == Kind::Array, "json: not an array");
    return arrayValue_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    FELIX_CHECK(kind_ == Kind::Object, "json: not an object");
    return objectValue_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = objectValue_.find(key);
    return it == objectValue_.end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return (v && v->isNumber()) ? v->asNumber() : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return (v && v->isString()) ? v->asString() : fallback;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.boolValue_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.numberValue_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.stringValue_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.arrayValue_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> m)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.objectValue_ = std::move(m);
    return v;
}

namespace {

/** Recursive-descent parser over a string view with an offset. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    parseDocument()
    {
        auto value = parseValue();
        if (!value)
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing content");
        return value;
    }

  private:
    std::optional<JsonValue>
    fail(const std::string &what)
    {
        if (error_ && error_->empty()) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return std::nullopt;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    std::optional<JsonValue>
    parseValue()
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return JsonValue::makeString(std::move(*s));
        }
        if (literal("true"))
            return JsonValue::makeBool(true);
        if (literal("false"))
            return JsonValue::makeBool(false);
        if (literal("null"))
            return JsonValue::makeNull();
        return parseNumber();
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"')) {
            fail("expected string");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("bad \\u escape");
                        return std::nullopt;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code += 10 + h - 'a';
                        else if (h >= 'A' && h <= 'F')
                            code += 10 + h - 'A';
                        else {
                            fail("bad \\u escape");
                            return std::nullopt;
                        }
                    }
                    // Encode as UTF-8 (no surrogate-pair support;
                    // telemetry strings are ASCII in practice).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("bad escape");
                    return std::nullopt;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue>
    parseNumber()
    {
        size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                digits = true;
            }
        };
        eatDigits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            eatDigits();
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '-' || text_[pos_] == '+'))
                ++pos_;
            eatDigits();
        }
        if (!digits)
            return fail("expected value");
        return JsonValue::makeNumber(
            std::strtod(text_.substr(start, pos_ - start).c_str(),
                        nullptr));
    }

    std::optional<JsonValue>
    parseArray()
    {
        consume('[');
        std::vector<JsonValue> items;
        skipSpace();
        if (consume(']'))
            return JsonValue::makeArray(std::move(items));
        while (true) {
            auto item = parseValue();
            if (!item)
                return std::nullopt;
            items.push_back(std::move(*item));
            if (consume(']'))
                return JsonValue::makeArray(std::move(items));
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    std::optional<JsonValue>
    parseObject()
    {
        consume('{');
        std::map<std::string, JsonValue> members;
        skipSpace();
        if (consume('}'))
            return JsonValue::makeObject(std::move(members));
        while (true) {
            skipSpace();
            auto key = parseString();
            if (!key)
                return std::nullopt;
            if (!consume(':'))
                return fail("expected ':'");
            auto value = parseValue();
            if (!value)
                return std::nullopt;
            members.emplace(std::move(*key), std::move(*value));
            if (consume('}'))
                return JsonValue::makeObject(std::move(members));
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text, error).parseDocument();
}

} // namespace obs
} // namespace felix
